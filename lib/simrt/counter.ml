type set = (string, int ref) Hashtbl.t

let create_set () = Hashtbl.create 64

let find_or_add set name =
  match Hashtbl.find_opt set name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add set name r;
      r

let add set name n =
  assert (n >= 0);
  let r = find_or_add set name in
  r := !r + n

let incr set name = add set name 1

let get set name = match Hashtbl.find_opt set name with Some r -> !r | None -> 0

let to_list set =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) set []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset set = Hashtbl.reset set

let merge_into ~dst src = Hashtbl.iter (fun k r -> add dst k !r) src

(* A cell names a counter without creating it: [slot] stays the shared
   [unresolved] sentinel (never written) until the first [bump], which adds
   the name exactly as [add] would. Later bumps are one physical comparison
   and one increment — no hashing. *)
type cell = { set : set; name : string; mutable slot : int ref }

let unresolved = ref 0

let cell set name = { set; name; slot = unresolved }

let bump c n =
  assert (n >= 0);
  if c.slot == unresolved then c.slot <- find_or_add c.set c.name;
  c.slot := !(c.slot) + n
