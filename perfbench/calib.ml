(* Host-speed calibration.

   The hosts this benchmark runs on are shared: over minutes the same
   simulation can take from 1.0 to 1.7 s (measured on a 2-core Xeon VM,
   CPU time equal to wall time, so the vCPU itself runs slower, not less
   often). A fixed kernel that does not use the simulator is timed before
   and after every measured repetition, on as many domains as the
   repetition uses, and the end-to-end host times are scaled by
   [nominal_s / kernel time]. They then read as seconds on a host where the
   kernel takes [nominal_s], and a change to the simulator cannot move the
   kernel. The kernel mixes what the simulator spends its time on: random
   accesses to a buffer larger than the host's caches and a binary heap
   (the event queue). It does not allocate, so kernels on several domains
   never stop each other for a minor collection. *)

let nominal_s = 0.06

(* One 16 MiB buffer per domain, allocated on first use and kept, so the
   kernel never page-faults or collects. The first calibration runs after
   the warm-up's peak RSS has been read. *)
let buffers = ref [||]

let buffer_words = 1 lsl 21

let mem buf =
  let x = ref 12345 in
  for _ = 1 to 1_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (buffer_words - 1) in
    buf.(i) <- buf.(i) + 1
  done

let heap () =
  let h = Array.make 4096 0 and size = ref 0 and x = ref 7 in
  let swap i j =
    let t = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- t
  in
  let push v =
    let i = ref !size in
    incr size;
    h.(!i) <- v;
    while !i > 0 && h.((!i - 1) / 2) > h.(!i) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = h.(0) in
    decr size;
    h.(0) <- h.(!size);
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      let m = ref !i in
      if l < !size && h.(l) < h.(!m) then m := l;
      if l + 1 < !size && h.(l + 1) < h.(!m) then m := l + 1;
      if !m = !i then fin := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0xffffff;
    !x
  in
  for _ = 1 to 2000 do
    push (next ())
  done;
  for _ = 1 to 300_000 do
    push (pop () + (next () land 1023))
  done

let kernel buf () =
  let t0 = Unix.gettimeofday () in
  mem buf;
  heap ();
  Unix.gettimeofday () -. t0

(* The kernel run once on each of [jobs] domains at once; the slowest
   domain's time, which excludes spawning. *)
let measure ~jobs =
  let jobs = max 1 jobs in
  let have = !buffers in
  if Array.length have < jobs then
    buffers :=
      Array.init jobs (fun i ->
          if i < Array.length have then have.(i) else Array.make buffer_words 0);
  let others = List.init (jobs - 1) (fun i -> Domain.spawn (kernel !buffers.(i + 1))) in
  let mine = kernel !buffers.(0) () in
  List.fold_left (fun acc d -> Float.max acc (Domain.join d)) mine others
