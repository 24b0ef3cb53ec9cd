(* Structure-of-arrays heap: slot [i] of [time], [seq] and [payload] is one
   event. Sifts move a hole instead of swapping, so each step is plain int
   stores (no boxed entries, no write barrier). Sequence numbers are unique,
   which makes (time, seq) a total order: any correct heap pops the same
   sequence. *)

type t = {
  mutable time : int array;
  mutable seq : int array;
  mutable payload : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { time = [||]; seq = [||]; payload = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0

let length t = t.size

let clear t =
  t.time <- [||];
  t.seq <- [||];
  t.payload <- [||];
  t.size <- 0;
  t.next_seq <- 0

let grow t =
  let cap = Array.length t.time in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a =
    let na = Array.make ncap 0 in
    Array.blit a 0 na 0 t.size;
    na
  in
  t.time <- extend t.time;
  t.seq <- extend t.seq;
  t.payload <- extend t.payload

let push t ~time payload =
  assert (time >= 0);
  if t.size = Array.length t.time then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let times = t.time and seqs = t.seq and pays = t.payload in
  (* Sift the hole up: the new event has the largest seq, so it moves above
     a parent only when strictly earlier in time. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if time < times.(parent) then begin
      times.(!i) <- times.(parent);
      seqs.(!i) <- seqs.(parent);
      pays.(!i) <- pays.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  pays.(!i) <- payload

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.time.(0)

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let times = t.time and seqs = t.seq and pays = t.payload in
  let top = pays.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    (* Sift the last event down from the root. *)
    let lt = times.(n) and ls = seqs.(n) and lp = pays.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        if times.(c) < lt || (times.(c) = lt && seqs.(c) < ls) then begin
          times.(!i) <- times.(c);
          seqs.(!i) <- seqs.(c);
          pays.(!i) <- pays.(c);
          i := c
        end
        else continue := false
      end
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    pays.(!i) <- lp
  end;
  top
