(* In-memory span recorder for the benchmark's traced run.

   Spans are recorded around calls into the simulator's public functions
   (never inside the simulator), kept in memory and written out once at the
   end. A span has a name, a start and end (host seconds), a parent span and
   the id of the simulation it belongs to, so every span of one simulation
   can be grouped. Pool tasks run on worker domains, so a task records into
   its own [local] buffer and the submitting domain [import]s the buffers in
   task order afterwards: no recorder is shared between domains. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  sim : int;  (** [-1] for spans that belong to no single simulation *)
  pass : string;  (** which replica pass recorded it: "plain" or "checked" *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = { mutable next : int; mutable spans : span list }

let create () = { next = 0; spans = [] }

let now = Unix.gettimeofday

let add r ~parent ~sim ~pass name t0 t1 =
  let id = r.next in
  r.next <- id + 1;
  r.spans <- { id; parent; sim; pass; name; t0; t1 } :: r.spans;
  id

(* Time [f ()] as one root span that belongs to no single simulation. *)
let time r ~pass name f =
  let t0 = now () in
  let v = f () in
  ignore (add r ~parent:(-1) ~sim:(-1) ~pass name t0 (now ()) : int);
  v

(* A task-local buffer: spans indexed from 0, parents by local index, and
   [-1] meaning "the span the task is imported under". *)
type local = { mutable items : (int * string * float * float) list; mutable count : int }

let local () = { items = []; count = 0 }

let local_add l ~parent name t0 t1 =
  let id = l.count in
  l.count <- id + 1;
  l.items <- (parent, name, t0, t1) :: l.items;
  id

let import r ~parent ~sim ~pass l =
  let base = r.next in
  List.iteri
    (fun i (p, name, t0, t1) ->
      let parent = if p < 0 then parent else base + p in
      ignore (add r ~parent ~sim ~pass name t0 t1 : int);
      assert (r.next = base + i + 1))
    (List.rev l.items)

let spans r = List.rev r.spans

let duration s = s.t1 -. s.t0

(* Self time: a span's duration minus the durations of its direct
   children. Children never overlap each other here (they are sequential
   calls on one domain), so the subtraction is exact. *)
let self_times r =
  let all = spans r in
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (duration s +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.0))
    all;
  List.map
    (fun s -> (s, duration s -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0.0))
    all

(* Summed self time of every span called [name] in [pass]. *)
let self_total r ~pass name =
  List.fold_left
    (fun acc (s, self) -> if s.pass = pass && s.name = name then acc +. self else acc)
    0.0 (self_times r)

(* Durations of every span called [name] in [pass], in recording order. *)
let durations r ~pass name =
  List.filter_map
    (fun s -> if s.pass = pass && s.name = name then Some (duration s) else None)
    (spans r)

let to_json r =
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) infinity (spans r) in
  let one s =
    Printf.sprintf
      "{\"id\":%d,\"parent\":%d,\"sim\":%d,\"pass\":%S,\"name\":%S,\"start_s\":%.9f,\"end_s\":%.9f}"
      s.id s.parent s.sim s.pass s.name (s.t0 -. origin) (s.t1 -. origin)
  in
  "[\n" ^ String.concat ",\n" (List.map one (spans r)) ^ "\n]\n"
