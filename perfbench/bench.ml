(* The repository benchmark: one workload per invocation, end-to-end
   metrics with tracing off (--trace 0) or per-layer metrics from a traced
   replica (--trace 1). Workloads, metrics and predictions are documented in
   README.md next to this file; run.py builds this executable and runs it.

   Every simulation's output is checked: against the fingerprints stored in
   expected.txt when the seed has them, otherwise against the first
   repetition of the same run, and always against an independent replica
   that calls the simulator's layers itself (in the other oracle mode, so
   every simulation is also oracle-checked once per run). *)

module Config = Machine.Config
module Stats = Machine.Stats
module Engine = Machine.Engine
module Perfctr = Simrt.Perfctr
module Run = Clear_repro.Run
module Experiments = Clear_repro.Experiments
module Driver = Openloop.Driver
module Sweep = Openloop.Sweep

let now = Spans.now

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] " ^ s)) fmt

(* ------------------------------------------------------------------ *)
(* Arguments *)

type kind = Suite | Openloop | Checked

let kind_name = function Suite -> "suite" | Openloop -> "openloop" | Checked -> "checked"

type args = {
  kind : kind;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  git_rev : string;
  setup_only : bool;
}

let parse_args () =
  let kind = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let nproc = ref (Domain.recommended_domain_count ()) and git_rev = ref "none" in
  let setup_only = ref false in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer, got %S" name v
  in
  (* Any decimal integer is a seed. One beyond the native int range wraps
     around, so it still names a fixed input. *)
  let seed_arg v =
    let neg = String.length v > 1 && v.[0] = '-' in
    let digits = if neg then String.sub v 1 (String.length v - 1) else v in
    if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then
      die "--seed expects an integer, got %S" v;
    let n = String.fold_left (fun acc c -> (acc * 10) + Char.code c - Char.code '0') 0 digits in
    if neg then -n else n
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: tl ->
        (kind :=
           match v with
           | "suite" -> Some Suite
           | "openloop" -> Some Openloop
           | "checked" -> Some Checked
           | _ -> die "unknown workload %S (suite, openloop, checked)" v);
        go tl
    | "--seed" :: v :: tl ->
        seed := seed_arg v;
        go tl
    | "--seconds" :: v :: tl ->
        (seconds :=
           match float_of_string_opt v with
           | Some s when s > 0.0 -> s
           | _ -> die "--seconds expects a positive number, got %S" v);
        go tl
    | "--trace" :: v :: tl ->
        (trace := match v with "0" -> false | "1" -> true | _ -> die "--trace expects 0 or 1");
        go tl
    | "--nproc" :: v :: tl ->
        nproc := max 1 (int_arg "--nproc" v);
        go tl
    | "--git-rev" :: v :: tl ->
        git_rev := v;
        go tl
    | "--setup-only" :: tl ->
        setup_only := true;
        go tl
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let kind = match !kind with Some k -> k | None -> die "--workload is required" in
  {
    kind;
    seed = !seed;
    seconds = !seconds;
    trace = !trace;
    nproc = !nproc;
    git_rev = !git_rev;
    setup_only = !setup_only;
  }

(* ------------------------------------------------------------------ *)
(* Inputs, generated from the seed *)

(* The --smoke cross product: 4 presets x 19 benchmarks x 2 seeds x retry
   limits {2, 5} = 304 simulations on 4 simulated cores, 40 ops each.
   Benchmark seed n gives simulation seeds 2n+1 and 2n+3, so seed 1 is the
   smoke suite's [3; 5]. *)
let suite_options seed =
  {
    Experiments.cores = 4;
    ops_per_thread = 40;
    seeds = [ (2 * seed) + 1; (2 * seed) + 3 ];
    trim = 0;
    retry_choices = [ 2; 5 ];
    sched = Sched.Profile.symmetric;
  }

(* arrayswap over 2^17 keys (twice the modelled L3), Zipf theta 6, Poisson
   arrivals, presets B and C with one retry, at an idle (20) and an
   overloading (60 req/kcycle) rate; the seed drives arrivals and keys. *)
let open_options seed =
  { Sweep.default_options with loads = [ 20.0; 60.0 ]; requests = 20_000; seed; jobs = 1 }

(* The suite's (config, workload, seed) task list in [Experiments.run_suite]
   order: workload, preset, retry limit, seed. *)
let suite_tasks (o : Experiments.options) =
  List.concat_map
    (fun (w : Machine.Workload.t) ->
      List.concat_map
        (fun letter ->
          let cfg = Experiments.config_of_letter o letter in
          List.concat_map
            (fun n -> Run.sims (Config.with_retries cfg n) w ~seeds:o.seeds)
            o.retry_choices)
        Experiments.letters)
    Workloads.Registry.all

(* [Sweep.run]'s grid: (config, sorted load) order. *)
let open_points (o : Sweep.options) =
  List.concat_map
    (fun cfg ->
      List.map
        (fun rate ->
          Config.with_openloop (Config.with_seed cfg o.seed)
            (Some
               {
                 Config.open_rate = rate;
                 open_requests = o.requests;
                 open_process = o.process;
                 open_queue_cap = o.queue_cap;
               }))
        (List.sort_uniq Float.compare o.loads))
    o.configs

let open_workload (o : Sweep.options) =
  Workloads.Registry.open_scaled o.workload ~keys:o.keys ~theta:o.theta

(* ------------------------------------------------------------------ *)
(* Checked outputs *)

(* One unit of checked output: a fig8 row (the 16 simulations of one
   benchmark) or an open-loop point (one simulation). *)
type out = { key : string; fp : string; sims : int }

let md5 s = Digest.to_hex (Digest.string s)

let lookup outs key = List.find_map (fun o -> if o.key = key then Some o.fp else None) outs

let suite_outs (s : Experiments.suite) =
  let fig8 = Report.Table.rows (Experiments.fig8 s) in
  List.map
    (fun (name, per_preset) ->
      let cells =
        match List.find_opt (fun r -> List.hd r = name) fig8 with
        | Some r -> String.concat "," r
        | None -> "missing"
      in
      let exact =
        List.map
          (fun (letter, (r : Run.t)) -> Printf.sprintf "%s:%d:%h" letter r.Run.retries r.Run.cycles)
          per_preset
      in
      {
        key = name;
        fp = md5 (String.concat ";" (cells :: exact));
        sims = List.length Experiments.letters * List.length s.options.retry_choices
               * List.length s.options.seeds;
      })
    s.rows

let point_key (d : Driver.t) = Printf.sprintf "%s@%g" d.Driver.preset d.Driver.rate

(* A point's fingerprint leaves out the checker's own fields, so a checked
   point and the unchecked point of the same inputs must agree. *)
let point_out (d : Driver.t) =
  let plain =
    {
      d with
      Driver.checked = false;
      stream = false;
      oracle_ok = true;
      check_live_lines = 0;
      check_retired = 0;
    }
  in
  { key = point_key d; fp = md5 (Report.Json.to_string (Driver.to_json plain)); sims = 1 }

(* expected.txt: "<suite|open> <seed> <key> <md5>" lines, '#' comments. *)
let load_expected () =
  let file = Filename.concat "perfbench" "expected.txt" in
  if not (Sys.file_exists file) then die "missing %s (run from the repository root)" file;
  let ic = open_in file in
  let tbl = Hashtbl.create 64 in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ group; seed; key; fp ] -> Hashtbl.replace tbl (group, int_of_string seed, key) fp
         | _ -> die "malformed line in %s: %S" file line
     done
   with End_of_file -> close_in ic);
  tbl

let group = function Suite -> "suite" | Openloop | Checked -> "open"

(* Tallies simulations attempted and failed over the whole run. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("[perfbench] FAIL " ^ s)) fmt

(* Compare outputs against a reference (key -> fingerprint). A unit's
   simulations fail when its fingerprint differs or has no reference.
   [~count:false] when the simulations were counted as attempted already. *)
let check_outs ?(count = true) ~what ~reference outs =
  List.iter
    (fun o ->
      if count then tally.attempted <- tally.attempted + o.sims;
      match reference o.key with
      | Some fp when fp = o.fp -> ()
      | Some fp ->
          tally.failed <- tally.failed + o.sims;
          fail "%s: %s fingerprint %s, expected %s" what o.key o.fp fp
      | None ->
          tally.failed <- tally.failed + o.sims;
          fail "%s: %s has no reference" what o.key)
    outs

(* ------------------------------------------------------------------ *)
(* The entry points: what a user calls, untraced *)

type entry_result =
  | Suite_out of (Experiments.suite, string) result
  | Points of (Driver.t, string) result list  (** per point: output or the exception *)

let run_entry a =
  match a.kind with
  | Suite -> (
      match Experiments.run_suite ~jobs:a.nproc ~cache:false (suite_options a.seed) with
      | s -> Suite_out (Ok s)
      | exception e -> Suite_out (Error (Printexc.to_string e)))
  | Openloop -> (
      let o = open_options a.seed in
      match Sweep.run o with
      | ds -> Points (List.map Result.ok ds)
      | exception e -> Points (List.map (fun _ -> Error (Printexc.to_string e)) (open_points o)))
  | Checked ->
      let o = open_options a.seed in
      let w = open_workload o in
      Points
        (List.map
           (fun cfg ->
             match Driver.run_point ~check:true ~stream:true cfg w with
             | d -> Ok d
             | exception e -> Error (Printexc.to_string e))
           (open_points o))

(* Every point must be served completely; a checked point must be
   oracle-clean. Failing points are tallied here and dropped. *)
let points_ok ~what results =
  List.filter_map
    (function
      | Error e ->
          tally.attempted <- tally.attempted + 1;
          tally.failed <- tally.failed + 1;
          fail "%s: raised %s" what e;
          None
      | Ok (d : Driver.t) ->
          if (d.Driver.checked && not d.Driver.oracle_ok) || d.Driver.completed <> d.Driver.requests
          then begin
            tally.attempted <- tally.attempted + 1;
            tally.failed <- tally.failed + 1;
            fail "%s: %s oracle_ok=%b completed %d of %d" what (point_key d) d.Driver.oracle_ok
              d.Driver.completed d.Driver.requests;
            None
          end
          else Some d)
    results

(* The entry point's checked outputs. A failure is tallied here, so call
   this once per entry-point call. *)
let entry_outs ~what = function
  | Suite_out (Ok s) -> suite_outs s
  | Suite_out (Error e) ->
      let n = List.length (suite_tasks (suite_options 0)) in
      tally.attempted <- tally.attempted + n;
      tally.failed <- tally.failed + n;
      fail "%s: raised %s" what e;
      []
  | Points ps -> List.map point_out (points_ok ~what ps)

(* ------------------------------------------------------------------ *)
(* The replica: the same simulations, calling each layer's public function
   itself, with spans around every call *)

type sim = {
  cfg : Config.t;
  stats : Stats.t;
  perf : Perfctr.t;
  openq : Machine.Openq.t option;
  verdict : Check.Verdict.t option;
  stream : Check.Stream.stats option;
  witnesses : int;
  lock_events : int;
  spans : Spans.local;
  create_words : float;
  run_words : float;
  minor_words : float;
  promoted_words : float;
}

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Wrap every closure of a checker sink so the time spent inside the
   checker (the verdict layer) is accumulated separately from the engine.
   The calls are far too many to record one span each; their total becomes
   one "check.sink" span under the run span. *)
let timed_sink acc locks (s : Check.Collector.sink) =
  let timed f =
    let t0 = now () in
    f ();
    Float.Array.set acc 0 (Float.Array.get acc 0 +. (now () -. t0))
  in
  {
    Check.Collector.sink_initial = (fun img -> timed (fun () -> s.sink_initial img));
    sink_commit = (fun w -> timed (fun () -> s.sink_commit w));
    sink_driver_writes =
      (fun ~time ~core ~stores -> timed (fun () -> s.sink_driver_writes ~time ~core ~stores));
    sink_lock_event =
      (fun e ->
        incr locks;
        timed (fun () -> s.sink_lock_event e));
    sink_decision = (fun d -> timed (fun () -> s.sink_decision d));
    sink_conflict = (fun c -> timed (fun () -> s.sink_conflict c));
    sink_ars = (fun ars -> timed (fun () -> s.sink_ars ars));
    sink_stats = s.sink_stats;
  }

(* One simulation, as [Run.run_sim] / [Run.run_sim_checked ~stream:true] /
   [Driver.run_point] perform it, split into create, run and verdict
   calls. Runs on a pool worker: GC counters are per domain, so they are
   read here. *)
let simulate ~check cfg w =
  let l = Spans.local () in
  let t_task = now () in
  let minor0, promoted0, _ = Gc.counters () in
  let cores = cfg.Config.cores in
  let sink_s = Float.Array.make 1 0.0 and locks = ref 0 in
  let streamer =
    if check then
      Some (Check.Stream.create ~static_gate:(Run.static_gate_of_config cfg) ~cores ())
    else None
  in
  let collector =
    Option.map
      (fun str ->
        Check.Collector.create_streaming ~cores (timed_sink sink_s locks (Check.Stream.sink str)))
      streamer
  in
  let a0 = allocated_words () in
  let t0 = now () in
  let engine = Engine.create ?check:collector cfg w in
  let t1 = now () in
  let a1 = allocated_words () in
  let stats = Engine.run engine in
  let t2 = now () in
  let a2 = allocated_words () in
  let verdict =
    Option.map
      (fun str -> Check.Verdict.of_stream str ~final:(Mem.Store.snapshot (Engine.store engine)))
      streamer
  in
  let t3 = now () in
  let minor1, promoted1, _ = Gc.counters () in
  let task = Spans.local_add l ~parent:(-1) "pool.task" t_task t3 in
  ignore (Spans.local_add l ~parent:task "engine.create" t0 t1 : int);
  let run = Spans.local_add l ~parent:task "engine.run" t1 t2 in
  if check then begin
    ignore (Spans.local_add l ~parent:run "check.sink" t1 (t1 +. Float.Array.get sink_s 0) : int);
    ignore (Spans.local_add l ~parent:task "verdict.finish" t2 t3 : int)
  end;
  {
    cfg;
    stats;
    perf = Engine.perfctr engine;
    openq = Engine.openq engine;
    verdict;
    stream = Option.map Check.Stream.stats streamer;
    witnesses = (match collector with Some c -> Check.Collector.commit_count c | None -> 0);
    lock_events = !locks;
    spans = l;
    create_words = a1 -. a0;
    run_words = a2 -. a1;
    minor_words = minor1 -. minor0;
    promoted_words = promoted1 -. promoted0;
  }

type pass = {
  pass : string;
  results : (sim, string) result array;
  wall : float;  (** the pool.map span *)
  jobs : int;
  minor_collections : int;
  major_collections : int;
  outs : out list;  (** the pass's checked outputs *)
  drivers : Driver.t list;  (** open-loop points, rebuilt as [Driver.run_point] would *)
}

let pass_name ~check = if check then "checked" else "plain"

(* Run [cfgs] on [jobs] domains through [Simrt.Pool.parallel_map], the
   same pool the entry points use. *)
let run_pool rec_ ~check ~jobs cfgs =
  let pass = pass_name ~check in
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let results =
    Simrt.Pool.parallel_map ~jobs
      (fun (cfg, w) ->
        match simulate ~check cfg w with r -> Ok r | exception e -> Error (Printexc.to_string e))
      cfgs
  in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  let map_id = Spans.add rec_ ~parent:(-1) ~sim:(-1) ~pass "pool.map" t0 t1 in
  List.iteri
    (fun i r ->
      match r with Ok s -> Spans.import rec_ ~parent:map_id ~sim:i ~pass s.spans | Error _ -> ())
    results;
  ( Array.of_list results,
    t1 -. t0,
    g1.Gc.minor_collections - g0.Gc.minor_collections,
    g1.Gc.major_collections - g0.Gc.major_collections )

(* Failed simulations (raised, or a checked one whose verdict is not
   clean) are tallied here. *)
let tally_sims ~what results =
  Array.iteri
    (fun i r ->
      tally.attempted <- tally.attempted + 1;
      match r with
      | Error e ->
          tally.failed <- tally.failed + 1;
          fail "%s: simulation %d raised %s" what i e
      | Ok s -> (
          match s.verdict with
          | Some v when not (Check.Verdict.ok v) ->
              tally.failed <- tally.failed + 1;
              fail "%s: simulation %d oracle verdict:\n%s" what i (Check.Verdict.to_string v)
          | _ -> ()))
    results

let suite_pass rec_ a ~check =
  let pass = pass_name ~check in
  let o = suite_options a.seed in
  let tasks = suite_tasks o in
  let results, wall, minc, majc =
    run_pool rec_ ~check ~jobs:a.nproc
      (List.map
         (fun (s : Run.sim) -> (Config.with_seed s.Run.cfg s.Run.seed, s.Run.workload))
         tasks)
  in
  let what = Printf.sprintf "suite replica (%s)" pass in
  tally_sims ~what results;
  (* [Experiments.run_suite]'s aggregation, over the replica's stats. *)
  let aggregate () =
    if Array.exists Result.is_error results then []
    else begin
      let stats = Array.map (function Ok s -> s.stats | Error _ -> assert false) results in
      let per_seed = List.length o.seeds in
      let next = ref 0 in
      let rows =
        List.map
          (fun (w : Machine.Workload.t) ->
            ( w.name,
              List.map
                (fun letter ->
                  let cfg = Experiments.config_of_letter o letter in
                  let candidates =
                    List.map
                      (fun n ->
                        let runs = List.init per_seed (fun j -> stats.(!next + j)) in
                        next := !next + per_seed;
                        Run.of_stats (Config.with_retries cfg n) w ~trim:o.trim runs)
                      o.retry_choices
                  in
                  (letter, Run.best candidates))
                Experiments.letters ))
          Workloads.Registry.all
      in
      suite_outs { Experiments.options = o; rows }
    end
  in
  let outs = Spans.time rec_ ~pass "harness.aggregate" aggregate in
  {
    pass;
    results;
    wall;
    jobs = a.nproc;
    minor_collections = minc;
    major_collections = majc;
    outs;
    drivers = [];
  }

(* [Driver.run_point]'s record, rebuilt from the replica's calls. *)
let driver_of (w : Machine.Workload.t) ~check (s : sim) =
  let cfg = s.cfg in
  let q = Option.get cfg.Config.openloop in
  let oq = Option.get s.openq in
  {
    Driver.workload = w.Machine.Workload.name;
    preset = Config.preset_letter cfg;
    retries = cfg.Config.max_retries;
    rate = q.Config.open_rate;
    process = Config.open_process_name q.Config.open_process;
    seed = cfg.Config.seed;
    total_cycles = Stats.total_cycles s.stats;
    commits = Stats.commits s.stats;
    requests = q.Config.open_requests;
    admitted = Machine.Openq.admitted oq;
    dropped = Machine.Openq.dropped oq;
    completed = Machine.Openq.completed oq;
    qdepth_hw = Machine.Openq.qdepth_hw oq;
    sojourn = Report.Percentile.of_samples (Machine.Openq.sojourns oq);
    wait = Report.Percentile.of_samples (Machine.Openq.waits oq);
    checked = check;
    stream = check;
    oracle_ok = (match s.verdict with Some v -> Check.Verdict.ok v | None -> true);
    events = s.perf.Perfctr.events_popped;
    check_live_lines = s.perf.Perfctr.check_live_lines;
    check_retired = s.perf.Perfctr.check_retired;
  }

let open_pass rec_ a ~check =
  let pass = pass_name ~check in
  let o = open_options a.seed in
  let w = open_workload o in
  let results, wall, minc, majc =
    run_pool rec_ ~check ~jobs:1 (List.map (fun c -> (c, w)) (open_points o))
  in
  let what = Printf.sprintf "%s replica (%s)" (kind_name a.kind) pass in
  tally_sims ~what results;
  let drivers =
    Spans.time rec_ ~pass "harness.aggregate" (fun () ->
        let ds =
          Array.to_list results |> List.filter_map Result.to_option |> List.map (driver_of w ~check)
        in
        (* Rendering the sweep's JSON is part of what [Sweep.run]'s callers
           pay for aggregation. *)
        ignore (Report.Json.to_string (Sweep.to_json o ds) : string);
        ds)
  in
  {
    pass;
    results;
    wall;
    jobs = 1;
    minor_collections = minc;
    major_collections = majc;
    outs = List.map point_out drivers;
    drivers;
  }

let replica rec_ a ~check =
  match a.kind with
  | Suite -> suite_pass rec_ a ~check
  | Openloop | Checked -> open_pass rec_ a ~check

(* The pass a workload runs itself, and the other one that cross-checks
   it: the suite and openloop are unchecked and are cross-checked by an
   oracle-checked replica; checked is cross-checked by an unchecked one. *)
let own_check a = a.kind = Checked

let ok_sims p = Array.to_list p.results |> List.filter_map Result.to_option

(* ------------------------------------------------------------------ *)
(* Measurements *)

(* Peak resident memory of this process (Linux VmHWM; elsewhere the GC's
   top heap, which covers the OCaml heap only). *)
let peak_rss_mb () =
  let from_status () =
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
      | _ -> find ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) find
  in
  match from_status () with
  | kb -> float_of_int kb /. 1024.0
  | exception _ ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Run a measurement [f] (which returns the seconds it measured) at least
   [min] times and until [seconds] have passed, with a calibration run of
   the host-speed kernel before the first and after every measurement (see
   calib.ml). Returns (raw, scaled) seconds per measurement, in order. *)
let paired ~jobs ~min ?(seconds = 0.0) f =
  let t_start = now () in
  let before = ref (Calib.measure ~jobs) in
  let rec go acc n =
    if n >= min && now () -. t_start >= seconds then List.rev acc
    else begin
      let t = f () in
      let after = Calib.measure ~jobs in
      let scale = Calib.nominal_s /. ((!before +. after) /. 2.0) in
      before := after;
      go ((t, t *. scale) :: acc) (n + 1)
    end
  in
  go [] 0

(* Setup is timed from the outside: a child process runs the benchmark in
   --setup-only mode (runtime start, module initialisation, the registry,
   [open_scaled], config and task building) and exits before the first call
   into the simulation. *)
let setup_child a () =
  let argv =
    [|
      Sys.executable_name;
      "--setup-only";
      "--workload";
      kind_name a.kind;
      "--seed";
      string_of_int a.seed;
    |]
  in
  let t0 = now () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let dt = now () -. t0 in
  if status <> Unix.WEXITED 0 then die "setup child exited abnormally";
  dt

let setup_only a =
  match a.kind with
  | Suite -> ignore (suite_tasks (suite_options a.seed) : Run.sim list)
  | Openloop | Checked ->
      let o = open_options a.seed in
      ignore (open_workload o : Machine.Workload.t);
      ignore (open_points o : Config.t list)

let kcycles n = float_of_int n /. 1000.0

let geomean = Simrt.Summary.geomean

(* Nearest-rank percentile of a sample. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* The highest of p99.9/p99/p90 with at least ten samples beyond it, else
   the median. *)
let tail_q n =
  match List.find_opt (fun q -> float_of_int n *. (1.0 -. q) >= 10.0) [ 0.999; 0.99; 0.9 ] with
  | Some q -> q
  | None -> 0.5

(* The simulated end-to-end metrics: CLEAR over the baseline in simulated
   cycles, and the mean and tail latency of the workload's unit of work in
   simulated kcycles (see README.md). The mean, not the median: C's median
   sojourn at load 20 is its uncontended service time, 500 cycles on every
   seed. *)
let sim_metrics a entry (check_pass : pass) =
  match entry with
  | Suite_out (Error _) -> (0.0, 0.0, 0.0)
  | Suite_out (Ok s) ->
      let norm =
        geomean
          (List.map
             (fun (_, per) ->
               let c l = (List.assoc l per).Run.cycles in
               if c "B" > 0.0 then c "W" /. c "B" else 0.0)
             s.rows)
      in
      let makespans =
        List.map (fun s -> kcycles (Stats.total_cycles s.stats)) (ok_sims check_pass)
      in
      ( norm,
        Simrt.Summary.mean makespans,
        percentile makespans (tail_q (List.length makespans)) )
  | Points ps ->
      let ds = List.filter_map Result.to_option ps in
      let find preset rate =
        List.find_opt (fun (d : Driver.t) -> d.Driver.preset = preset && d.Driver.rate = rate) ds
      in
      let loads = (open_options a.seed).loads in
      let norm =
        geomean
          (List.filter_map
             (fun rate ->
               match (find "B" rate, find "C" rate) with
               | Some b, Some c when b.Driver.total_cycles > 0 ->
                   Some (float_of_int c.Driver.total_cycles /. float_of_int b.Driver.total_cycles)
               | _ -> None)
             loads)
      in
      (* C's sojourn at the lowest load. At 60 req/kcycle C sits close to
         saturation and whether a backlog forms depends on the seed (its
         median ranged 0.65-1.51 kcycles over seeds 11-18), so that point is
         reported per layer ([openq.C_60.*]) rather than end to end. *)
      let low = List.fold_left Float.min infinity loads in
      let mean, p999 =
        match find "C" low with
        | Some { Driver.sojourn = Some p; _ } ->
            (p.Report.Percentile.mean /. 1000.0, kcycles p.Report.Percentile.p999)
        | _ -> (0.0, 0.0)
      in
      (norm, mean, p999)

let instrs p = List.fold_left (fun acc s -> acc + Stats.instrs s.stats) 0 (ok_sims p)

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value = (if Float.is_finite value then value else 0.0); unit_ }

let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_string s = "\"" ^ String.escaped s ^ "\""

let jobs_of a = if a.kind = Suite then a.nproc else 1

(* Host metadata, one JSON line before the result. *)
let print_host a extra =
  Printf.printf
    "{\"host\": {\"workload\": %s, \"seed\": %d, \"nproc\": %d, \"recommended_domain_count\": \
     %d, \"jobs\": %d, \"ocaml\": %s, \"git_rev\": %s, \"exe_md5\": %s%s}}\n"
    (json_string (kind_name a.kind)) a.seed a.nproc (Domain.recommended_domain_count ()) (jobs_of a)
    (json_string Sys.ocaml_version) (json_string a.git_rev)
    (json_string (Digest.to_hex (Digest.file Sys.executable_name)))
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf ", %s: %.17g" (json_string k) v) extra))

let print_result metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string x.name) x.value
             (json_string x.unit_))
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.failed = 0) (max 1 tally.attempted) tally.failed body

(* ------------------------------------------------------------------ *)
(* The two modes *)

let reference_of a expected first =
  let g = group a.kind in
  let stored =
    Hashtbl.fold (fun (g', seed, _) _ acc -> acc || (g' = g && seed = a.seed)) expected false
  in
  if stored then begin
    log "checking against the stored fingerprints for seed %d" a.seed;
    fun key -> Hashtbl.find_opt expected (g, a.seed, key)
  end
  else begin
    log "no stored fingerprints for seed %d: checking every repetition against the first" a.seed;
    lookup first
  end

let print_fingerprints a outs =
  List.iter
    (fun o -> Printf.eprintf "fingerprint %s %d %s %s\n" (group a.kind) a.seed o.key o.fp)
    outs

(* Cross-check a replica pass against the entry point's outputs. The pass's
   simulations were counted by [tally_sims]. *)
let cross_check ~what (entry_outs : out list) (p : pass) =
  check_outs ~count:false ~what ~reference:(lookup entry_outs) p.outs;
  if List.length p.outs <> List.length entry_outs then begin
    tally.failed <- tally.failed + 1;
    fail "%s: %d outputs, the entry point gave %d" what (List.length p.outs)
      (List.length entry_outs)
  end

let median = Simrt.Summary.median

(* The untimed first call of the entry point, checked. Its outputs are
   the reference for later calls when the seed has no stored fingerprints. *)
let warm_up a =
  let warm = run_entry a in
  let outs = entry_outs ~what:"warm-up" warm in
  print_fingerprints a outs;
  let reference = reference_of a (load_expected ()) outs in
  check_outs ~what:"warm-up" ~reference outs;
  (warm, outs, reference)

let end_to_end a =
  (* The warm-up runs first, in a fresh process, so its peak RSS is what
     one run of the workload needs. *)
  let warm, warm_outs, reference = warm_up a in
  let peak_rss = peak_rss_mb () in
  let setup = paired ~jobs:1 ~min:15 (setup_child a) in
  let last = ref (warm, warm_outs) in
  let walls =
    paired ~jobs:(jobs_of a) ~min:3 ~seconds:a.seconds (fun () ->
        let t0 = now () in
        let e = run_entry a in
        let dt = now () -. t0 in
        let outs = entry_outs ~what:"repetition" e in
        check_outs ~what:"repetition" ~reference outs;
        last := (e, outs);
        dt)
  in
  let show xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs) in
  log "%d timed repetitions: raw %s s; scaled %s s" (List.length walls)
    (show (List.map fst walls)) (show (List.map snd walls));
  let wall_s = median (List.map snd walls) in
  (* The cross-check pass also supplies the instruction count. *)
  let p = replica (Spans.create ()) a ~check:(not (own_check a)) in
  let last, last_outs = !last in
  cross_check ~what:(Printf.sprintf "%s replica" p.pass) last_outs p;
  let norm, mean, tail = sim_metrics a last p in
  let minstr = float_of_int (instrs p) /. 1e6 in
  print_host a
    [
      ("raw_wall_s", median (List.map fst walls));
      ("raw_setup_s", median (List.map fst setup));
      ("calibration_nominal_s", Calib.nominal_s);
    ];
  print_result
    [
      m "wall_s" "s" wall_s;
      m "sim_minstr_per_s" "Minstr/s" (minstr /. wall_s);
      m "setup_s" "s" (median (List.map snd setup));
      m "peak_rss_mb" "MB" peak_rss;
      m "ok_ratio" "ratio"
        (ratio
           (float_of_int (tally.attempted - tally.failed))
           (float_of_int (max 1 tally.attempted)));
      m "sim_norm_cycles" "ratio" norm;
      m "sim_mean_kcycles" "kcycles" mean;
      m "sim_tail_kcycles" "kcycles" tail;
    ]

(* Standalone static analysis of the workload's ARs: every AR's
   [Gate.prediction] plus the may-conflict matrix [Conflict.of_ars]. *)
let static_analysis rec_ a =
  let cfg, workloads =
    match a.kind with
    | Suite -> (Experiments.config_of_letter (suite_options a.seed) "C", Workloads.Registry.all)
    | Openloop | Checked ->
        let o = open_options a.seed in
        (List.hd (open_points o), [ open_workload o ])
  in
  let params =
    Staticcheck.Predict.params_of ~alt_capacity:cfg.Config.alt_capacity
      ~sq_entries:cfg.sq_entries ~rob_entries:cfg.rob_entries ~crt_entries:cfg.crt_entries
      ~crt_ways:cfg.crt_ways cfg.mem_params
  in
  let pass = "static" in
  let () =
    Spans.time rec_ ~pass "static.prediction" (fun () ->
        let gate = Staticcheck.Gate.create params in
        List.iter
          (fun (w : Machine.Workload.t) ->
            List.iter
              (fun ar -> ignore (Staticcheck.Gate.prediction gate ar : Staticcheck.Predict.t))
              w.ars)
          workloads)
  in
  let matrices =
    Spans.time rec_ ~pass "static.conflict" (fun () ->
        List.map
          (fun (w : Machine.Workload.t) -> Staticcheck.Conflict.of_ars ~params w.ars)
          workloads)
  in
  let top_pairs =
    List.fold_left
      (fun acc c ->
        let n = Array.length (Staticcheck.Conflict.ars c) in
        let k = ref 0 in
        for i = 0 to n - 1 do
          for j = i to n - 1 do
            if Staticcheck.Conflict.may_conflict c i j = Staticcheck.Conflict.Top then incr k
          done
        done;
        acc + !k)
      0 matrices
  in
  ( Spans.self_total rec_ ~pass "static.prediction"
    +. Spans.self_total rec_ ~pass "static.conflict",
    top_pairs )

let write_trace a rec_ =
  let dir = Filename.concat "perfbench" "_out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file =
    Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" (kind_name a.kind) a.seed)
  in
  let oc = open_out file in
  output_string oc (Spans.to_json rec_);
  close_out oc;
  log "spans written to %s" file

let per_layer a =
  let _, _, reference = warm_up a in
  let t0 = now () in
  let entry = run_entry a in
  let untraced = now () -. t0 in
  let outs = entry_outs ~what:"untraced" entry in
  check_outs ~what:"untraced" ~reference outs;
  let rec_ = Spans.create () in
  (* The workload's own calls, traced; it must reproduce the entry point
     exactly (for open-loop points, checker fields included). *)
  let t0 = now () in
  let own = replica rec_ a ~check:(own_check a) in
  let traced = now () -. t0 in
  cross_check ~what:"traced replica" outs own;
  (match entry with
  | Points ps ->
      let full d = Report.Json.to_string (Driver.to_json d) in
      let entry_json = List.map full (List.filter_map Result.to_option ps) in
      if entry_json <> List.map full own.drivers then begin
        tally.failed <- tally.failed + 1;
        fail "traced replica: open-loop points differ from the entry point's"
      end
  | Suite_out _ -> ());
  let other = replica rec_ a ~check:(not (own_check a)) in
  cross_check ~what:"cross-check replica" outs other;
  let static_s, top_pairs = static_analysis rec_ a in
  write_trace a rec_;
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  (* Calibrated after the GC reading: the kernel's buffers are not the
     workload's memory. *)
  let cal = median (List.init 3 (fun _ -> Calib.measure ~jobs:(jobs_of a))) in
  let checked = if own_check a then own else other in
  let sims = ok_sims own in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0.0 sims in
  let sumi f = List.fold_left (fun acc s -> acc + f s) 0 sims in
  let counter name =
    float_of_int (sumi (fun s -> Simrt.Counter.get (Stats.counters s.stats) name))
  in
  let perf f = float_of_int (sumi (fun s -> f s.perf)) in
  let pass = own.pass in
  let creates = Spans.durations rec_ ~pass "engine.create" in
  let runs =
    (* per-simulation self time of the run span (excludes the checker) *)
    List.filter_map
      (fun (s, self) ->
        if s.Spans.pass = pass && s.Spans.name = "engine.run" then Some self else None)
      (Spans.self_times rec_)
  in
  let run_s = List.fold_left ( +. ) 0.0 runs in
  let events = perf (fun p -> p.Perfctr.events_popped) in
  let instrs = sum (fun s -> float_of_int (Stats.instrs s.stats)) in
  let commits = sum (fun s -> float_of_int (Stats.commits s.stats)) in
  let aborts = sum (fun s -> float_of_int (Stats.aborts s.stats)) in
  let mode md = sum (fun s -> float_of_int (Stats.commits_in_mode s.stats md)) in
  let single = sum (fun s -> float_of_int (Stats.commits_with_retries s.stats 1)) in
  let ms xs q = 1000.0 *. percentile xs q in
  let timing prefix xs =
    let q = tail_q (List.length xs) in
    [
      m (prefix ^ ".s") "s" (List.fold_left ( +. ) 0.0 xs);
      m (prefix ^ ".ms_p50") "ms" (ms xs 0.5);
      m (prefix ^ ".ms_tail") "ms" (ms xs q);
      m (prefix ^ ".tail_pct") "%" (100.0 *. q);
      m (prefix ^ ".samples") "count" (float_of_int (List.length xs));
    ]
  in
  let openq =
    List.concat_map
      (fun (preset, rate) ->
        let p = Printf.sprintf "openq.%s_%g." preset rate in
        let d =
          List.find_opt
            (fun (d : Driver.t) -> d.Driver.preset = preset && d.Driver.rate = rate)
            own.drivers
        in
        let wait f =
          match d with Some { Driver.wait = Some w; _ } -> kcycles (f w) | _ -> 0.0
        in
        [
          m (p ^ "qdepth_hw") "count"
            (match d with Some d -> float_of_int d.Driver.qdepth_hw | None -> 0.0);
          m (p ^ "wait_p50_kcycles") "kcycles" (wait (fun w -> w.Report.Percentile.p50));
          m (p ^ "wait_p999_kcycles") "kcycles" (wait (fun w -> w.Report.Percentile.p999));
        ])
      [ ("B", 20.0); ("B", 60.0); ("C", 20.0); ("C", 60.0) ]
  in
  let csims = ok_sims checked in
  let csum f = List.fold_left (fun acc s -> acc + f s) 0 csims in
  let verdict_s = Spans.self_total rec_ ~pass:"checked" "check.sink" in
  let capture_s =
    Spans.self_total rec_ ~pass:"checked" "engine.run"
    -. Spans.self_total rec_ ~pass:"plain" "engine.run"
  in
  let busy = List.fold_left ( +. ) 0.0 (Spans.durations rec_ ~pass "pool.task") in
  let capacity = float_of_int own.jobs *. own.wall in
  let gc_words f = sum f /. 1e6 in
  print_host a [ ("calibration_s", cal) ];
  print_result
    (timing "create" creates
    @ [ m "create.alloc_mw" "Mwords" (sum (fun s -> s.create_words) /. 1e6) ]
    @ timing "run" runs
    @ [
        m "run.events" "count" events;
        m "run.ns_per_event" "ns" (ratio (run_s *. 1e9) events);
        m "run.alloc_words_per_event" "words" (ratio (sum (fun s -> s.run_words)) events);
        m "mem.l1_hit" "count" (counter "l1_hit");
        m "mem.l2_hit" "count" (counter "l2_hit");
        m "mem.l3_hit" "count" (counter "l3_hit");
        m "mem.mem_access" "count" (counter "mem_access");
        m "mem.coh_msgs" "count" (counter "coh_msgs");
        m "mem.line_locks" "count" (counter "line_locks");
        m "conflict.checks" "count" (perf (fun p -> p.Perfctr.conflict_checks));
        m "conflict.hit_ratio" "ratio"
          (ratio
             (perf (fun p -> p.Perfctr.conflict_hits))
             (perf (fun p -> p.Perfctr.conflict_checks)));
        m "txn.footprint_inserts" "count" (perf (fun p -> p.Perfctr.footprint_inserts));
        m "txn.forward_scans" "count" (perf (fun p -> p.Perfctr.store_forward_scans));
        m "clear.instrs" "count" instrs;
        m "clear.wasted_instr_ratio" "ratio"
          (ratio (sum (fun s -> float_of_int (Stats.wasted_instrs s.stats))) instrs);
        m "clear.commit_ratio" "ratio" (ratio commits (commits +. aborts));
        m "clear.single_retry_ratio" "ratio" (ratio single commits);
        m "clear.cl_share" "ratio" (ratio (mode Stats.Scl +. mode Stats.Nscl) commits);
        m "clear.fallback_share" "ratio" (ratio (mode Stats.Fallback_mode) commits);
      ]
    @ openq
    @ [
        m "capture.s" "s" capture_s;
        m "capture.witnesses" "count" (float_of_int (csum (fun s -> s.witnesses)));
        m "capture.lock_events" "count" (float_of_int (csum (fun s -> s.lock_events)));
        m "verdict.s" "s" verdict_s;
        m "verdict.finish_s" "s" (Spans.self_total rec_ ~pass:"checked" "verdict.finish");
        m "verdict.peak_live_lines" "count"
          (float_of_int
             (List.fold_left
                (fun acc s ->
                  match s.stream with
                  | Some st -> max acc st.Check.Stream.peak_live_lines
                  | None -> acc)
                0 csims));
        m "verdict.retired" "count"
          (float_of_int
             (csum (fun s ->
                  match s.stream with Some st -> st.Check.Stream.retired | None -> 0)));
        m "static.s" "s" static_s;
        m "static.top_pairs" "count" (float_of_int top_pairs);
        m "pool.jobs" "count" (float_of_int own.jobs);
        m "pool.busy_s" "s" busy;
        m "pool.idle_s" "s" (capacity -. busy);
        m "pool.efficiency" "ratio" (ratio busy capacity);
        m "gc.minor_mw" "Mwords" (gc_words (fun s -> s.minor_words));
        m "gc.promoted_mw" "Mwords" (gc_words (fun s -> s.promoted_words));
        m "gc.minor_collections" "count" (float_of_int own.minor_collections);
        m "gc.major_collections" "count" (float_of_int own.major_collections);
        m "gc.top_heap_mb" "MB" top_heap_mb;
        m "harness.aggregate_s" "s" (Spans.self_total rec_ ~pass "harness.aggregate");
        m "trace.overhead" "ratio" (ratio traced untraced);
        m "host.nproc" "count" (float_of_int a.nproc);
        m "host.domains" "count" (float_of_int (Domain.recommended_domain_count ()));
        m "host.calibration_s" "s" cal;
      ])

let () =
  let a = parse_args () in
  if a.setup_only then setup_only a else if a.trace then per_layer a else end_to_end a
