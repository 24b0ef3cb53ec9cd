type event =
  | Attempt_begin of { time : int; core : int }
  | Lock of { time : int; core : int; line : Mem.Addr.line; key : int }
  | Unlock of { time : int; core : int; line : Mem.Addr.line }
  | Attempt_end of { time : int; core : int }

type violation = { time : int; core : int; reason : string }

let pp_violation fmt v =
  Format.fprintf fmt "lock-safety violation at t=%d on core %d: %s" v.time v.core v.reason

type core_state = { mutable held : Mem.Addr.line list; mutable last_key : int }

type t = {
  holders : (Mem.Addr.line, int) Hashtbl.t;  (* line -> holding core *)
  cores : core_state array;
}

let create ~cores =
  { holders = Hashtbl.create 64; cores = Array.init cores (fun _ -> { held = []; last_key = min_int }) }

let err time core fmt = Printf.ksprintf (fun reason -> Error { time; core; reason }) fmt

let add t = function
  | Attempt_begin { time; core } ->
      let cs = t.cores.(core) in
      if cs.held <> [] then
        err time core "attempt begins while still holding %d line lock(s) from a previous attempt"
          (List.length cs.held)
      else begin
        cs.last_key <- min_int;
        Ok ()
      end
  | Lock { time; core; line; key } -> (
      match Hashtbl.find_opt t.holders line with
      | Some holder when holder = core -> err time core "re-locked line %d it already holds" line
      | Some holder -> err time core "locked line %d already held by core %d" line holder
      | None ->
          let cs = t.cores.(core) in
          if key < cs.last_key then
            err time core "lock on line %d breaks lexicographic order (key %d after %d)" line key
              cs.last_key
          else begin
            Hashtbl.replace t.holders line core;
            cs.held <- line :: cs.held;
            cs.last_key <- key;
            Ok ()
          end)
  | Unlock { time; core; line } -> (
      match Hashtbl.find_opt t.holders line with
      | Some holder when holder = core ->
          Hashtbl.remove t.holders line;
          let cs = t.cores.(core) in
          cs.held <- List.filter (fun l -> l <> line) cs.held;
          Ok ()
      | Some holder -> err time core "unlocked line %d held by core %d" line holder
      | None -> err time core "unlocked line %d that is not locked" line)
  | Attempt_end { time; core } ->
      let cs = t.cores.(core) in
      if cs.held <> [] then
        err time core "attempt ends with %d unreleased line lock(s) (first: line %d)"
          (List.length cs.held)
          (List.hd cs.held)
      else Ok ()

let finish t =
  let result = ref (Ok ()) in
  Array.iteri
    (fun core cs ->
      match !result with
      | Error _ -> ()
      | Ok () ->
          if cs.held <> [] then
            result :=
              err max_int core "simulation ended with %d line lock(s) still held" (List.length cs.held))
    t.cores;
  (match !result with
  | Error _ -> ()
  | Ok () ->
      if Hashtbl.length t.holders > 0 then
        let line, core = Hashtbl.fold (fun l c _ -> (l, c)) t.holders (-1, -1) in
        result := err max_int core "simulation ended with line %d still locked" line);
  !result
