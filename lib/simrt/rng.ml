(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field store boxes a fresh int64 on every draw, while
   the bytes primitives read and write it unboxed, so with the helpers
   inlined a draw allocates nothing. *)
type t = { state : Bytes.t; seed : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make s =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 s;
  { state; seed = s }

let create seed = make (Int64.of_int seed)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix64 s

let split t salt =
  (* Derive the child seed from the parent's original seed, not its current
     position, so stream identities do not depend on draw order. *)
  make (mix64 (Int64.add t.seed (Int64.mul (Int64.of_int salt) golden_gamma)))

let int t bound =
  assert (bound > 0);
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let[@inline] float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let zipf t ~n ~theta =
  assert (n > 0);
  if theta <= 0.0 then int t n
  else begin
    (* Inverse-power sampling: cheap approximation that concentrates mass on
       low indices, adequate for generating hot spots. *)
    let u = float t 1.0 in
    let x = Float.of_int n *. (u ** (1.0 +. theta)) in
    let i = int_of_float x in
    if i >= n then n - 1 else if i < 0 then 0 else i
  end
