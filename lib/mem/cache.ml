(* Tag and age storage is allocated per chunk of [chunk_sets] consecutive
   sets, on the first insert into the chunk. Until then the chunk's slot
   points at the cache's shared [empty] chunk (all tags -1), which is never
   written: a fresh cache costs a chunk table, not sets * ways zeroed words,
   and a simulation pays only for the sets its footprint maps to. A chunk
   holds its tags at [0, n) and their ages at [n, 2n), n = chunk_sets * ways,
   with each set's ways contiguous — within a set the layout, and so every
   scan order, is the flat array's. *)

let max_chunk_shift = 4

type t = {
  sets : int;
  ways : int;
  chunk_shift : int; (* log2 of sets per chunk *)
  chunk_slots : int; (* tags per chunk: chunk_sets * ways *)
  chunks : int array array;
  empty : int array;
  mutable tick : int;
}

let create ~sets ~ways =
  if sets <= 0 || sets land (sets - 1) <> 0 then
    invalid_arg "Cache.create: sets must be a positive power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  let chunk_shift = min max_chunk_shift (log2 sets) in
  let chunk_slots = (1 lsl chunk_shift) * ways in
  let empty = Array.init (2 * chunk_slots) (fun i -> if i < chunk_slots then -1 else 0) in
  {
    sets;
    ways;
    chunk_shift;
    chunk_slots;
    chunks = Array.make (sets lsr chunk_shift) empty;
    empty;
    tick = 0;
  }

let sets t = t.sets

let ways t = t.ways

let set_of t line = line land (t.sets - 1)

let chunk_of t line = Array.unsafe_get t.chunks (set_of t line lsr t.chunk_shift)

(* Offset of the first way of [line]'s set inside its chunk. *)
let base_of t line = (set_of t line land ((1 lsl t.chunk_shift) - 1)) * t.ways

let rec scan ch line i last =
  if i = last then -1 else if Array.unsafe_get ch i = line then i else scan ch line (i + 1) last

(* Offset of [line]'s tag inside chunk [ch], or -1 when absent. An empty
   chunk holds nothing. *)
let find t ch line =
  if ch == t.empty then -1
  else
    let base = base_of t line in
    scan ch line base (base + t.ways)

let mem t line = find t (chunk_of t line) line >= 0

let bump t ch i =
  t.tick <- t.tick + 1;
  ch.(t.chunk_slots + i) <- t.tick

let touch t line =
  let ch = chunk_of t line in
  let i = find t ch line in
  if i >= 0 then begin
    bump t ch i;
    true
  end
  else false

(* [line]'s chunk, made private on first insert. *)
let owned_chunk t line =
  let ci = set_of t line lsr t.chunk_shift in
  let ch = t.chunks.(ci) in
  if ch != t.empty then ch
  else begin
    let ch = Array.copy t.empty in
    t.chunks.(ci) <- ch;
    ch
  end

let insert t line =
  let ch = owned_chunk t line in
  let i = find t ch line in
  if i >= 0 then begin
    bump t ch i;
    None
  end
  else begin
    let base = base_of t line and ages = t.chunk_slots in
    (* Prefer an empty way; otherwise evict the LRU way. *)
    let victim = ref base in
    let found_empty = ref false in
    for w = 0 to t.ways - 1 do
      let i = base + w in
      if (not !found_empty) && ch.(i) = -1 then begin
        victim := i;
        found_empty := true
      end
      else if (not !found_empty) && ch.(ages + i) < ch.(ages + !victim) then victim := i
    done;
    let evicted = ch.(!victim) in
    ch.(!victim) <- line;
    bump t ch !victim;
    if evicted = -1 then None else Some evicted
  end

let invalidate t line =
  let ch = chunk_of t line in
  let i = find t ch line in
  if i >= 0 then begin
    ch.(i) <- -1;
    ch.(t.chunk_slots + i) <- 0;
    true
  end
  else false

let lines_in_set_of t line =
  let ch = chunk_of t line and base = base_of t line in
  let n = ref 0 in
  for w = 0 to t.ways - 1 do
    if ch.(base + w) <> -1 then incr n
  done;
  !n

let would_fit t lines =
  let per_set = Hashtbl.create 16 in
  List.for_all
    (fun line ->
      let s = set_of t line in
      let n = match Hashtbl.find_opt per_set s with Some r -> r | None -> 0 in
      Hashtbl.replace per_set s (n + 1);
      n + 1 <= t.ways)
    lines

let iter t f =
  Array.iter
    (fun ch ->
      if ch != t.empty then
        for i = 0 to t.chunk_slots - 1 do
          let tag = ch.(i) in
          if tag <> -1 then f tag
        done)
    t.chunks

let clear t =
  Array.fill t.chunks 0 (Array.length t.chunks) t.empty;
  t.tick <- 0
