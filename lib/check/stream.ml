(* Incremental, bounded-memory face of the execution oracle (DESIGN.md §14).

   The post hoc oracles consume a complete per-run history: every witness,
   lock event and decision, retained until the run ends. This module checks
   the same stream online, one emission at a time, and retires state as soon
   as the global committed frontier proves it can no longer participate in a
   violation — so a checked run carries O(live lines) of checker state
   instead of O(history).

   Retirement invariant. Let F be the minimum attempt-begin time over all
   in-flight attempts (or the latest stream time when every core is idle).
   The engine feeds emissions in non-decreasing time order (its event loop
   is monotone in [t.now]), and every future witness performs all of
   its reads and acquires visibility inside its own attempt interval — so
   every future read time and every future visibility is >= F. Hence:

   - a recorded reader with first-read time tr <= F can never close a Wr
     cycle (that needs tr > vis' for some future visibility vis' >= F);
   - a recorded writer with visibility vis <= F can never close an Rw cycle
     (needs a future read tr < vis <= F) nor a Ww cycle (needs a future
     visibility vis' < vis <= F).

   Dropping exactly that state changes no check outcome, so the first
   violation reported here is identical — field for field — to the post hoc
   {!Serial.check} over the full history. Dropped entries are folded into
   per-line and global high-water counters, never lost silently. *)

type line_state = {
  mutable last_writer : (Witness.t * int) option;  (* witness, visibility *)
  mutable readers : (Witness.t * int) list;  (* live readers, newest first *)
  mutable n_readers : int;
  mutable retired_readers : int;  (* compact summary of dropped readers *)
}

type stats = {
  live_lines : int;
  peak_live_lines : int;
  live_entries : int;
  peak_live_entries : int;
  retired : int;
  commits : int;
}

type results = {
  commits : int;
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
}

type t = {
  sweep_every : int;
  static_gate : Staticcheck.Gate.t option;
  lines : (Mem.Addr.line, line_state) Hashtbl.t;
  locks : Lock_safety.t;
  inflight : int array;  (* attempt-begin time per core; -1 = idle *)
  mutable replay_cur : Replay.cursor option;
  mutable last_time : int;
  mutable n_commits : int;
  mutable since_sweep : int;
  (* Per-oracle first-error latches: after an oracle fails it stops being
     fed (its post hoc counterpart stops at the first error too); the other
     oracles keep running, matching {!Verdict.evaluate}'s independent
     results. The static gate latches witness and decision violations
     separately because the post hoc gate checks all witnesses before any
     decision. *)
  mutable serial_err : Serial.violation option;
  mutable replay_err : Replay.divergence option;
  mutable lock_err : Lock_safety.violation option;
  mutable gate_commit_err : Staticcheck.Gate.violation option;
  mutable gate_decision_err : Staticcheck.Gate.violation option;
  mutable gate_conflict_err : Staticcheck.Gate.violation option;
  mutable ars : Isa.Program.ar list;
  mutable live_entries : int;
  mutable peak_live_lines : int;
  mutable peak_live_entries : int;
  mutable retired : int;
}

let create ?static_gate ?(sweep_every = 512) ~cores () =
  if sweep_every < 1 then invalid_arg "Stream.create: sweep_every must be >= 1";
  {
    sweep_every;
    static_gate;
    lines = Hashtbl.create 1024;
    locks = Lock_safety.create ~cores;
    inflight = Array.make cores (-1);
    replay_cur = None;
    last_time = 0;
    n_commits = 0;
    since_sweep = 0;
    serial_err = None;
    replay_err = None;
    lock_err = None;
    gate_commit_err = None;
    gate_decision_err = None;
    gate_conflict_err = None;
    ars = [];
    live_entries = 0;
    peak_live_lines = 0;
    peak_live_entries = 0;
    retired = 0;
  }

let stats t =
  {
    live_lines = Hashtbl.length t.lines;
    peak_live_lines = t.peak_live_lines;
    live_entries = t.live_entries;
    peak_live_entries = t.peak_live_entries;
    retired = t.retired;
    commits = t.n_commits;
  }

let set_initial t snap = t.replay_cur <- Some (Replay.start ~initial:snap)

let note_time t time = if time > t.last_time then t.last_time <- time

(* ------------------------------------------------------------------ *)
(* Retirement *)

let frontier t =
  let f = ref max_int in
  Array.iter (fun b -> if b >= 0 && b < !f then f := b) t.inflight;
  if !f = max_int then t.last_time else !f

let sweep t =
  let f = frontier t in
  Hashtbl.filter_map_inplace
    (fun _line s ->
      let kept = List.filter (fun ((_ : Witness.t), tr) -> tr > f) s.readers in
      let n_kept = List.length kept in
      let dropped = s.n_readers - n_kept in
      if dropped > 0 then begin
        s.readers <- kept;
        s.n_readers <- n_kept;
        s.retired_readers <- s.retired_readers + dropped;
        t.retired <- t.retired + dropped;
        t.live_entries <- t.live_entries - dropped
      end;
      (match s.last_writer with
      | Some (_, vis) when vis <= f ->
          s.last_writer <- None;
          t.retired <- t.retired + 1;
          t.live_entries <- t.live_entries - 1
      | Some _ | None -> ());
      if s.n_readers = 0 && s.last_writer = None then None else Some s)
    t.lines

(* ------------------------------------------------------------------ *)
(* Serializability: Serial.add ported onto the retiring line table. The
   check logic is identical statement for statement; only the bookkeeping
   around the per-line entries differs. *)

let state t line =
  match Hashtbl.find_opt t.lines line with
  | Some s -> s
  | None ->
      let s = { last_writer = None; readers = []; n_readers = 0; retired_readers = 0 } in
      Hashtbl.add t.lines line s;
      s

exception Found of Serial.violation

let serial_add t (w : Witness.t) =
  try
    List.iter
      (fun (line, tr) ->
        let s = state t line in
        (match s.last_writer with
        | Some (earlier, vis) when tr < vis ->
            raise
              (Found
                 {
                   Serial.earlier;
                   later = w;
                   line;
                   kind = Serial.Rw;
                   detail =
                     Printf.sprintf
                       "later read line %d at t=%d, before earlier's write became visible at t=%d"
                       line tr vis;
                 })
        | _ -> ());
        s.readers <- (w, tr) :: s.readers;
        s.n_readers <- s.n_readers + 1;
        t.live_entries <- t.live_entries + 1)
      w.reads;
    List.iter
      (fun (line, _first_write) ->
        let s = state t line in
        let vis = Witness.visibility w line in
        (match s.last_writer with
        | Some (earlier, prev_vis) when vis < prev_vis ->
            raise
              (Found
                 {
                   Serial.earlier;
                   later = w;
                   line;
                   kind = Serial.Ww;
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
                     Serial.earlier = reader;
                     later = w;
                     line;
                     kind = Serial.Wr;
                     detail =
                       Printf.sprintf
                         "earlier read line %d at t=%d, after later's write became visible at t=%d"
                         line tr vis;
                   }))
          s.readers;
        if s.last_writer = None then t.live_entries <- t.live_entries + 1;
        t.live_entries <- t.live_entries - s.n_readers;
        s.last_writer <- Some (w, vis);
        s.readers <- [];
        s.n_readers <- 0)
      w.writes;
    Ok ()
  with Found v -> Error v

(* ------------------------------------------------------------------ *)
(* Feeding *)

let add_commit t (w : Witness.t) =
  note_time t w.time;
  (match t.serial_err with
  | Some _ -> ()
  | None -> (
      match serial_add t w with Ok () -> () | Error v -> t.serial_err <- Some v));
  (match (t.replay_err, t.replay_cur) with
  | Some _, _ | _, None -> ()
  | None, Some cur -> (
      match Replay.step cur w with Ok () -> () | Error d -> t.replay_err <- Some d));
  (match (t.static_gate, t.gate_commit_err) with
  | None, _ | _, Some _ -> ()
  | Some gate, None -> (
      match
        Staticcheck.Gate.check_commit gate ~ar:w.Witness.ar ~init_regs:w.Witness.init_regs
          ~reads:(List.map fst w.Witness.reads)
          ~writes:(List.map fst w.Witness.writes)
      with
      | Ok () -> ()
      | Error v -> t.gate_commit_err <- Some v));
  t.n_commits <- t.n_commits + 1;
  let live = Hashtbl.length t.lines in
  if live > t.peak_live_lines then t.peak_live_lines <- live;
  if t.live_entries > t.peak_live_entries then t.peak_live_entries <- t.live_entries;
  t.since_sweep <- t.since_sweep + 1;
  if t.since_sweep >= t.sweep_every then begin
    t.since_sweep <- 0;
    sweep t
  end

let add_driver_writes t ~time ~core:_ ~stores =
  note_time t time;
  match (t.replay_err, t.replay_cur) with
  | Some _, _ | _, None -> ()
  | None, Some cur -> Replay.apply_driver_writes cur stores

let add_lock_event t (ev : Lock_safety.event) =
  (match ev with
  | Lock_safety.Attempt_begin { time; core } ->
      note_time t time;
      t.inflight.(core) <- time
  | Lock_safety.Attempt_end { time; core } ->
      note_time t time;
      t.inflight.(core) <- -1
  | Lock_safety.Lock { time; _ } | Lock_safety.Unlock { time; _ } -> note_time t time);
  match t.lock_err with
  | Some _ -> ()
  | None -> (
      match Lock_safety.add t.locks ev with Ok () -> () | Error v -> t.lock_err <- Some v)

let set_ars t ars = t.ars <- ars

let add_conflict t (c : Collector.conflict) =
  note_time t c.Collector.time;
  match (t.static_gate, t.gate_conflict_err) with
  | None, _ | _, Some _ -> ()
  | Some gate, None -> (
      match
        Staticcheck.Gate.check_conflict gate ~ars:t.ars ~aggressor:c.Collector.aggressor_ar
          ~victim:c.Collector.victim_ar ~line:c.Collector.line
      with
      | Ok () -> ()
      | Error v -> t.gate_conflict_err <- Some v)

let add_decision t (d : Collector.decision) =
  note_time t d.Collector.time;
  match (t.static_gate, t.gate_decision_err) with
  | None, _ | _, Some _ -> ()
  | Some gate, None -> (
      match
        Staticcheck.Gate.check_decision gate ~ar:d.Collector.ar ~decision:d.Collector.decision
      with
      | Ok () -> ()
      | Error v -> t.gate_decision_err <- Some v)

(* ------------------------------------------------------------------ *)
(* Closing the run *)

let finish t ~final =
  let serial = match t.serial_err with Some v -> Error v | None -> Ok () in
  let replay =
    match (t.replay_err, t.replay_cur) with
    | Some d, _ -> Error d
    | None, None -> invalid_arg "Stream.finish: no initial snapshot was fed"
    | None, Some cur -> Replay.finish cur ~final
  in
  let locks =
    match t.lock_err with Some v -> Error v | None -> Lock_safety.finish t.locks
  in
  let static_ =
    Option.map
      (fun (_ : Staticcheck.Gate.t) ->
        (* Witness violations outrank decision violations, which outrank
           conflict violations, matching the post hoc gate's
           witnesses-then-decisions-then-conflicts order. *)
        match (t.gate_commit_err, t.gate_decision_err, t.gate_conflict_err) with
        | Some v, _, _ -> Error v
        | None, Some v, _ -> Error v
        | None, None, Some v -> Error v
        | None, None, None -> Ok ())
      t.static_gate
  in
  { commits = t.n_commits; serial; replay; locks; static_ }

let sink t =
  {
    Collector.sink_initial = set_initial t;
    sink_commit = add_commit t;
    sink_driver_writes = (fun ~time ~core ~stores -> add_driver_writes t ~time ~core ~stores);
    sink_lock_event = add_lock_event t;
    sink_decision = add_decision t;
    sink_conflict = add_conflict t;
    sink_ars = set_ars t;
    sink_stats =
      (fun () ->
        let s = stats t in
        (s.peak_live_lines, s.retired));
  }
