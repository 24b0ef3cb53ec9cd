(* The post hoc execution oracle: the reference model for Check.Stream
   (DESIGN.md §14). A recording sink keeps a run's whole emission history,
   and [evaluate] runs every oracle over it in one batch, so each verdict
   field comes from code written without the frontier retirement the
   streaming checker relies on. The qcheck property "Stream ≡ post hoc
   Serial", the engine-level agreement tests and the streamcheck gate all
   compare Check.Stream against this module. *)

module Witness = Check.Witness

let first_error f xs =
  List.fold_left (fun acc x -> match acc with Error _ -> acc | Ok () -> f x) (Ok ()) xs

(* Conflict-graph serializability in commit order (Check.Serial documents
   the three violation kinds). *)
module Serial = struct
  open Check.Serial

  (* Per-line state: the last committed writer (with the cycle its write
     became visible) and every reader that committed since. Readers before
     the last writer are irrelevant: any conflict they could expose against
     a future writer W would already have fired as an Rw/Ww check when the
     current writer committed after them, or will fire against the current
     writer's visibility which is at least as recent. *)
  type line_state = {
    mutable last_writer : (Witness.t * int) option;  (* witness, visibility *)
    mutable readers : (Witness.t * int) list;  (* witness, first-read cycle *)
  }

  type t = { lines : (Mem.Addr.line, line_state) Hashtbl.t }

  let create () = { lines = Hashtbl.create 1024 }

  let state t line =
    match Hashtbl.find_opt t.lines line with
    | Some s -> s
    | None ->
        let s = { last_writer = None; readers = [] } in
        Hashtbl.add t.lines line s;
        s

  exception Found of violation

  (* Feed witnesses in commit order; the first violation found is returned.
     After an [Error] the state is undefined. *)
  let add t (w : Witness.t) =
    try
      (* Reads first: each must not predate the visibility of the last
         committed write to the same line. *)
      List.iter
        (fun (line, tr) ->
          let s = state t line in
          (match s.last_writer with
          | Some (earlier, vis) when tr < vis ->
              raise
                (Found
                   {
                     earlier;
                     later = w;
                     line;
                     kind = Rw;
                     detail =
                       Printf.sprintf
                         "later read line %d at t=%d, before earlier's write became visible at t=%d"
                         line tr vis;
                   })
          | _ -> ());
          s.readers <- (w, tr) :: s.readers)
        w.reads;
      (* Writes second: visibility must not precede the last writer's, nor
         any earlier committer's read of the same line. *)
      List.iter
        (fun (line, _first_write) ->
          let s = state t line in
          let vis = Witness.visibility w line in
          (match s.last_writer with
          | Some (earlier, prev_vis) when vis < prev_vis ->
              raise
                (Found
                   {
                     earlier;
                     later = w;
                     line;
                     kind = Ww;
                     detail =
                       Printf.sprintf
                         "later's write to line %d became visible at t=%d, before earlier's at t=%d"
                         line vis prev_vis;
                   })
          | _ -> ());
          List.iter
            (fun ((reader : Witness.t), tr) ->
              if reader.seq <> w.seq && tr > vis then
                raise
                  (Found
                     {
                       earlier = reader;
                       later = w;
                       line;
                       kind = Wr;
                       detail =
                         Printf.sprintf
                           "earlier read line %d at t=%d, after later's write became visible at t=%d"
                           line tr vis;
                     }))
            s.readers;
          s.last_writer <- Some (w, vis);
          s.readers <- [])
        w.writes;
      Ok ()
    with Found v -> Error v

  let check witnesses = first_error (add (create ())) witnesses
end

(* A run's commits and driver writes, in emission order. *)
type entry =
  | Commit of Witness.t
  | Driver_writes of { time : int; core : int; stores : (Mem.Addr.t * int) list }

module Replay = struct
  (* Replay [entries] from [initial] and compare against [final]. *)
  let run ~initial ~entries ~final =
    let cur = Check.Replay.start ~initial in
    let step = function
      | Commit w -> Check.Replay.step cur w
      | Driver_writes { stores; _ } ->
          Check.Replay.apply_driver_writes cur stores;
          Ok ()
    in
    match first_error step entries with
    | Error _ as e -> e
    | Ok () -> Check.Replay.finish cur ~final
end

module Lock_safety = struct
  (* Every event in order, then the end-of-run release check. *)
  let check ~cores events =
    let t = Check.Lock_safety.create ~cores in
    match first_error (Check.Lock_safety.add t) events with
    | Error _ as e -> e
    | Ok () -> Check.Lock_safety.finish t
end

(* ------------------------------------------------------------------ *)
(* Recording sink *)

type recorder = {
  cores : int;
  mutable initial : Mem.Store.image option;
  mutable rev_entries : entry list;
  mutable rev_lock_events : Check.Lock_safety.event list;
  mutable rev_decisions : Check.Collector.decision list;
  mutable rev_conflicts : Check.Collector.conflict list;
  mutable ars : Isa.Program.ar list;
}

let recorder ~cores =
  {
    cores;
    initial = None;
    rev_entries = [];
    rev_lock_events = [];
    rev_decisions = [];
    rev_conflicts = [];
    ars = [];
  }

let sink r =
  {
    Check.Collector.sink_initial = (fun img -> r.initial <- Some img);
    sink_commit = (fun w -> r.rev_entries <- Commit w :: r.rev_entries);
    sink_driver_writes =
      (fun ~time ~core ~stores -> r.rev_entries <- Driver_writes { time; core; stores } :: r.rev_entries);
    sink_lock_event = (fun ev -> r.rev_lock_events <- ev :: r.rev_lock_events);
    sink_decision = (fun d -> r.rev_decisions <- d :: r.rev_decisions);
    sink_conflict = (fun c -> r.rev_conflicts <- c :: r.rev_conflicts);
    sink_ars = (fun ars -> r.ars <- ars);
    sink_stats = (fun () -> (0, 0));
  }

let witnesses r =
  List.filter_map (function Commit w -> Some w | Driver_writes _ -> None) (List.rev r.rev_entries)

(* Dynamic footprint ⊆ static may-sets for every witness, then every
   end-of-discovery decision inside the static envelope, then every
   observed conflict line inside the static may-conflict cover for its AR
   pair. *)
let static_gate_check gate r =
  let module G = Staticcheck.Gate in
  let commit (w : Witness.t) =
    G.check_commit gate ~ar:w.ar ~init_regs:w.init_regs ~reads:(List.map fst w.reads)
      ~writes:(List.map fst w.writes)
  in
  let decision (d : Check.Collector.decision) = G.check_decision gate ~ar:d.ar ~decision:d.decision in
  let conflict (c : Check.Collector.conflict) =
    G.check_conflict gate ~ars:r.ars ~aggressor:c.aggressor_ar ~victim:c.victim_ar ~line:c.line
  in
  match first_error commit (witnesses r) with
  | Error _ as e -> e
  | Ok () -> (
      match first_error decision (List.rev r.rev_decisions) with
      | Error _ as e -> e
      | Ok () -> first_error conflict (List.rev r.rev_conflicts))

(* Every oracle over a completed run's recording. Raises [Invalid_argument]
   if the engine never fed an initial snapshot. *)
let evaluate ?static_gate r ~final =
  let initial =
    match r.initial with
    | Some snap -> snap
    | None -> invalid_arg "Check_reference.evaluate: no initial snapshot was recorded"
  in
  let ws = witnesses r in
  {
    Check.Verdict.commits = List.length ws;
    serial = Serial.check ws;
    replay = Replay.run ~initial ~entries:(List.rev r.rev_entries) ~final;
    locks = Lock_safety.check ~cores:r.cores (List.rev r.rev_lock_events);
    static_ = Option.map (fun gate -> static_gate_check gate r) static_gate;
  }

(* [Clear_repro.Run.run_sim_checked] with the recording sink in place of the
   stream. [static_gate] defaults to the configuration's own, as there. *)
let run_sim_checked ?static_gate { Clear_repro.Run.cfg; workload; seed } =
  let cfg = Machine.Config.with_seed cfg seed in
  let cores = cfg.Machine.Config.cores in
  let static_gate =
    Option.value static_gate ~default:(Clear_repro.Run.static_gate_of_config cfg)
  in
  let r = recorder ~cores in
  let check = Check.Collector.create_streaming ~cores (sink r) in
  let engine = Machine.Engine.create ~check cfg workload in
  let stats = Machine.Engine.run engine in
  (stats, evaluate ~static_gate r ~final:(Mem.Store.snapshot (Machine.Engine.store engine)))
