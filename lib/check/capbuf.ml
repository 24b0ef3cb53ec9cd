type t = {
  mutable rl : int array; (* read lines *)
  mutable rt : int array; (* first-read cycles, parallel to rl *)
  mutable rn : int;
  mutable wl : int array;
  mutable wt : int array;
  mutable wn : int;
  mutable sa : int array; (* store addresses, program order *)
  mutable sv : int array; (* store values, parallel to sa *)
  mutable sn : int;
}

let initial = 16

let create () =
  {
    rl = Array.make initial 0;
    rt = Array.make initial 0;
    rn = 0;
    wl = Array.make initial 0;
    wt = Array.make initial 0;
    wn = 0;
    sa = Array.make initial 0;
    sv = Array.make initial 0;
    sn = 0;
  }

let grow a n = if n = Array.length a then Array.append a (Array.make n 0) else a

(* Linear-scan dedup: attempt footprints are bounded by the CLEAR table
   sizes (tens of lines), where a scan beats hashing and allocates nothing. *)
let rec mem_from a n x i = i < n && (a.(i) = x || mem_from a n x (i + 1))

let mem a n x = mem_from a n x 0

let note_read t ~line ~time =
  if not (mem t.rl t.rn line) then begin
    t.rl <- grow t.rl t.rn;
    t.rt <- grow t.rt t.rn;
    t.rl.(t.rn) <- line;
    t.rt.(t.rn) <- time;
    t.rn <- t.rn + 1
  end

let note_write t ~line ~time =
  if not (mem t.wl t.wn line) then begin
    t.wl <- grow t.wl t.wn;
    t.wt <- grow t.wt t.wn;
    t.wl.(t.wn) <- line;
    t.wt.(t.wn) <- time;
    t.wn <- t.wn + 1
  end

let note_store t ~addr ~value =
  t.sa <- grow t.sa t.sn;
  t.sv <- grow t.sv t.sn;
  t.sa.(t.sn) <- addr;
  t.sv.(t.sn) <- value;
  t.sn <- t.sn + 1

let reset t =
  t.rn <- 0;
  t.wn <- 0;
  t.sn <- 0

let sorted_pairs lines times n =
  let xs = ref [] in
  for i = n - 1 downto 0 do
    xs := (lines.(i), times.(i)) :: !xs
  done;
  (* Lines are unique, so this matches the old hashtable capture's
     [List.sort compare] on (line, time) bindings exactly — as does the
     explicit int-pair comparator, which avoids the generic-compare call
     per element on this per-commit path. *)
  let cmp (l1, t1) (l2, t2) = if l1 <> l2 then Int.compare l1 l2 else Int.compare t1 t2 in
  List.sort cmp !xs

let reads t = sorted_pairs t.rl t.rt t.rn

let writes t = sorted_pairs t.wl t.wt t.wn

let stores t =
  let xs = ref [] in
  for i = t.sn - 1 downto 0 do
    xs := (t.sa.(i), t.sv.(i)) :: !xs
  done;
  !xs
