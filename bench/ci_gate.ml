module J = Report.Json
module E = Clear_repro.Experiments
module Run = Clear_repro.Run
module Sweep = Openloop.Sweep
module Driver = Openloop.Driver

(* ------------------------------------------------------------------ *)
(* Hard gates: predicates over a gate's record                         *)

let num v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.3g" v

let number key j = Option.bind (J.member key j) J.to_float

let value = Option.fold ~none:"missing" ~some:num

let flag key j =
  match J.member key j with
  | Some (J.Bool true) -> None
  | v ->
      Some (Printf.sprintf "%s is %s, limit true" key (Option.fold v ~none:"missing" ~some:J.to_string))

let bound key ~ok ~limit j =
  match number key j with
  | Some v when ok v -> None
  | v -> Some (Printf.sprintf "%s is %s, limit %s" key (value v) limit)

let at_least key limit = bound key ~ok:(fun v -> v >= limit) ~limit:(">= " ^ num limit)

let at_most key limit = bound key ~ok:(fun v -> v <= limit) ~limit:("<= " ^ num limit)

let curve j = match J.member "curve" j with Some (J.List points) -> points | _ -> []

(* >= 2 presets, each with >= 3 load points, every point with exact
   p50/p99/p999 sojourn percentiles. *)
let curve_shape j =
  let preset p = match J.member "preset" p with Some (J.Str s) -> s | _ -> "?" in
  let presets = List.sort_uniq compare (List.map preset (curve j)) in
  let loads p = List.length (List.filter (fun q -> preset q = p) (curve j)) in
  let partial =
    List.filter (fun p -> List.exists (fun k -> number k p = None) [ "p50"; "p99"; "p999" ]) (curve j)
  in
  if List.length presets < 2 then
    Some (Printf.sprintf "curve has %d preset(s), limit >= 2" (List.length presets))
  else if partial <> [] then
    Some (Printf.sprintf "%d point(s) lack p50/p99/p999, limit 0" (List.length partial))
  else
    Option.map
      (fun p -> Printf.sprintf "preset %s has %d load point(s), limit >= 3" p (loads p))
      (List.find_opt (fun p -> loads p < 3) presets)

let tail_separation j =
  let peak = Option.value (J.member "tail_gate_at_peak" j) ~default:J.Null in
  match (number "baseline_p99" peak, number "clear_p99" peak) with
  | Some b, Some c when b > c -> None
  | b, c ->
      Some
        (Printf.sprintf "at load %s baseline p99 is %s, limit > CLEAR p99 %s"
           (value (number "load" peak)) (value b) (value c))

let hard_gates =
  [
    ("suite", [ flag "outputs_identical" ]);
    ("check", [ flag "outputs_identical" ]);
    ( "sched",
      [ at_most "oracle_violations" 0.; flag "outputs_identical"; at_least "materially_different" 2. ]
    );
    ("paper", [ flag "outputs_identical" ]);
    ( "streamcheck",
      [ at_least "grid_points_identical" 3.; flag "fault_caught_both_paths";
        flag "open_stats_identical"; flag "oracle_clean"; at_most "stream_overhead_factor" 1.4;
        at_least "events" 1e7; at_least "peak_live_lines" 1.; at_most "peak_live_lines" 4096.;
        at_least "retired_entries" 1. ] );
    ("openloop", [ flag "outputs_identical"; flag "oracle_clean"; curve_shape; tail_separation ]);
  ]

(* ------------------------------------------------------------------ *)
(* Shared part: host, timing, identity, drift                          *)

let host_cores = Domain.recommended_domain_count ()

let par_jobs = max 1 (min 4 host_cores)

(* Result, wall ms and CPU ms (Unix.times: user + system over all domains). *)
let timed f =
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let ms s = int_of_float (1000. *. s) in
  let w0 = Unix.gettimeofday () and c0 = cpu () in
  let r = f () in
  (r, ms (Unix.gettimeofday () -. w0), ms (cpu () -. c0))

let ratio a b = Float.round (100. *. float_of_int a /. float_of_int (max 1 b)) /. 100.

(* Alternating (base, treated) pairs, keeping the pair with the lowest CPU
   ratio: both members of a pair see near-identical ambient load (other
   @ci rules share the host), so the pairwise ratio stays honest where a
   one-shot or per-side best-of-N measurement does not. *)
let best_of_pairs n base treated =
  let pair () =
    Gc.full_major ();
    let b, _, b_cpu = timed base in
    Gc.full_major ();
    let t, _, t_cpu = timed treated in
    (ratio t_cpu b_cpu, b_cpu, t_cpu, b, t)
  in
  let better ((r, _, _, _, _) as x) ((r', _, _, _, _) as y) = if r' < r then y else x in
  let first = pair () in
  List.fold_left better first (List.init (n - 1) (fun _ -> pair ()))

(* Byte identity of two renderings; a difference is shown on stderr. *)
let same what a b =
  String.equal a b
  ||
  let rec first i = function
    | x :: xs, y :: ys when x = y -> first (i + 1) (xs, ys)
    | x :: _, y :: _ -> (i, x, y)
    | x :: _, [] -> (i, x, "<end>")
    | [], y :: _ -> (i, "<end>", y)
    | [], [] -> (i, "", "")
  in
  let i, x, y = first 1 (String.split_on_char '\n' a, String.split_on_char '\n' b) in
  Printf.eprintf "%s differ, first at line %d:\n  %s\n  %s\n%!" what i x y;
  false

let drift_warnings ~gate ~limit_pct ~previous current =
  List.filter_map
    (fun (name, now) ->
      match List.assoc_opt name previous with
      | Some old when old > 0. && Float.abs (100. *. (now -. old) /. old) > limit_pct ->
          Some
            (Printf.sprintf "::warning ::%s %s drifted %+.1f%% (%s -> %s)" gate name
               (100. *. (now -. old) /. old) (num old) (num now))
      | _ -> None)
    current

let scalars keys j = List.filter_map (fun k -> Option.map (fun v -> (k, v)) (number k j)) keys

let strings l = J.List (List.map (fun s -> J.Str s) l)

(* ------------------------------------------------------------------ *)
(* Gates: each measures and returns its record's fields                *)

let smoke =
  { E.quick_options with cores = 4; ops_per_thread = 40; seeds = [ 3; 5 ]; retry_choices = [ 2; 5 ] }

let smoke_label = "smoke-fig8 (4 configs x 19 benchmarks, 4 cores, 40 ops, 2 seeds, retries [2,5])"

let preset ~cores ~ops letter = E.config_of_letter { smoke with cores; ops_per_thread = ops } letter

let fig8 ?(check = false) jobs =
  timed (fun () ->
      let s = E.run_suite ~jobs ~check ~cache:false smoke in
      Report.Table.to_string (E.fig8 s) ^ Report.Table.to_string (E.fig8_discovery s))

let suite_gate () =
  let out1, ms1, _ = fig8 1 in
  let outn, msn, _ = fig8 par_jobs in
  let perf = E.perf_counters smoke (List.map Workloads.Registry.find [ "mwobject"; "bitcoin"; "bst" ]) in
  let meaningful = host_cores >= 2 in
  [
    ("suite", J.Str smoke_label);
    ("parallel_meaningful", J.Bool meaningful);
    ("jobs1_wall_ms", J.Int ms1);
    ("jobsN_wall_ms", J.Int msn);
    ("speedup_jobsN_over_jobs1", if meaningful then J.Float (ratio ms1 msn) else J.Null);
    ("outputs_identical", J.Bool (same "fig8 at --jobs 1 and --jobs N" out1 outn));
    ("perfctr", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Simrt.Perfctr.to_list perf)));
  ]

let check_gate () =
  let plain, ms_plain, _ = fig8 par_jobs in
  let checked, ms_checked, _ = fig8 ~check:true par_jobs in
  let sim = { Run.cfg = preset ~cores:4 ~ops:40 "B"; workload = Workloads.Stack.workload; seed = 3 } in
  [
    ("suite", J.Str smoke_label);
    ("plain_wall_ms", J.Int ms_plain);
    ("checked_wall_ms", J.Int ms_checked);
    ("check_overhead_factor", J.Float (ratio ms_checked ms_plain));
    ("outputs_identical", J.Bool (same "fig8 plain and --check" plain checked));
    ("oracles", strings (Check.Verdict.oracles (snd (Run.run_sim_checked sim))));
  ]

let sched_gate () =
  let module S = Clear_repro.Sched_sweep in
  let run jobs = S.run ~jobs ~check:true ~config:(preset ~cores:8 ~ops:80) Workloads.Stack.workload in
  match run par_jobs with
  | exception Run.Check_failed msg ->
      prerr_endline msg;
      [ ("oracle_violations", J.Int 1) ]
  | sweep ->
      let text s = J.to_string_pretty (S.to_json s) in
      ("oracle_violations", J.Int 0)
      :: ("outputs_identical", J.Bool (same "sweeps at jobs 1 and N" (text (run 1)) (text sweep)))
      :: (match S.to_json sweep with J.Obj fields -> fields | _ -> [])

(* The suite-driven artefacts of the paper protocol on one benchmark:
   enough to time the sweep, the shard cache and figure generation. *)
let paper_gate () =
  let opts = E.default_options in
  let render () =
    let s = E.run_suite ~jobs:par_jobs ~cache:true ~workloads:[ Workloads.Arrayswap.workload ] opts in
    String.concat "\n"
      (List.map Report.Table.to_string
         [ E.table1 (); E.table2 opts; E.fig1 s; E.fig8 s; E.fig8_discovery s; E.fig9 s; E.fig10 s;
           E.fig11 s; E.fig12 s; E.fig13 s; E.headline s; E.storage () ])
  in
  ignore (Clear_repro.Suite_cache.clear () : int);
  let cold, cold_ms, _ = timed render in
  let warm, warm_ms, _ = timed render in
  [
    ( "protocol",
      J.Str
        "--paper (32 cores, 300 ops, 10 seeds trim 3, retries 1..10); restricted to arrayswap, \
         suite-driven artefacts" );
    ("cold_wall_ms", J.Int cold_ms);
    ("warm_wall_ms", J.Int warm_ms);
    ("warm_speedup", J.Float (ratio cold_ms warm_ms));
    ("outputs_identical", J.Bool (same "artefacts cache-cold and cache-warm" cold warm));
  ]

let streamcheck_gate () =
  (* One `clear_sim check` point (seed 42) through both oracle paths:
     whether the two reports agree, and the post hoc verdict. *)
  let verdicts ?fault ~cores ~ops name letter =
    let cfg = { (preset ~cores ~ops letter) with Machine.Config.fault_blind_line = fault } in
    let sim = { Run.cfg; workload = Workloads.Registry.find name; seed = 42 } in
    let posthoc = snd (Run.run_sim_checked sim) in
    let streamed = snd (Run.run_sim_checked ~stream:true sim) in
    let report = Check.Verdict.to_string in
    (same (name ^ "/" ^ letter ^ " reports") (report posthoc) (report streamed), posthoc)
  in
  let grid =
    List.map
      (fun (name, letter) -> verdicts ~cores:4 ~ops:30 name letter)
      [ ("mwobject", "W"); ("labyrinth", "C"); ("stack", "B") ]
  in
  let fault_agrees, fault = verdicts ~fault:8 ~cores:8 ~ops:80 "mwobject" "B" in
  let o = { Sweep.default_options with loads = [ 120. ]; requests = 500_000; jobs = 1 } in
  let overhead, plain_ms, stream_ms, plain, streamed =
    best_of_pairs 3 (fun () -> Sweep.run o) (fun () -> Sweep.run { o with check = true; stream = true })
  in
  let strip (r : Driver.t) =
    { r with checked = false; stream = false; oracle_ok = true; check_live_lines = 0; check_retired = 0 }
  in
  let text rs = J.to_string_pretty (Sweep.to_json o (List.map strip rs)) in
  let peak f = List.fold_left (fun acc r -> max acc (f r)) 0 streamed in
  [
    ( "suite",
      J.Str
        "streaming checker (check grid x 2 paths, fault injection, openloop 500000 requests at load \
         120)" );
    ( "grid_points_identical",
      J.Int (List.length (List.filter (fun (agree, v) -> agree && Check.Verdict.ok v) grid)) );
    ("fault_caught_both_paths", J.Bool (fault_agrees && not (Check.Verdict.ok fault)));
    ( "open_stats_identical",
      J.Bool (same "open-loop stats plain and --stream" (text plain) (text streamed)) );
    ("oracle_clean", J.Bool (List.for_all (fun r -> r.Driver.oracle_ok) streamed));
    ("open_plain_cpu_ms", J.Int plain_ms);
    ("open_stream_cpu_ms", J.Int stream_ms);
    ("stream_overhead_factor", J.Float overhead);
    ("events", J.Int (peak (fun r -> r.Driver.events)));
    ("peak_live_lines", J.Int (peak (fun r -> r.Driver.check_live_lines)));
    ("retired_entries", J.Int (peak (fun r -> r.Driver.check_retired)));
    ("oracles", strings (Check.Verdict.oracles (snd (List.hd grid))));
  ]

let openloop_gate () =
  let o = { Sweep.default_options with check = true } in
  let curve1, wall_ms, _ = timed (fun () -> Sweep.run { o with jobs = 1 }) in
  let text rs = J.to_string_pretty (Sweep.to_json o rs) in
  let sojourn f (r : Driver.t) =
    Option.fold r.Driver.sojourn ~none:J.Null ~some:(fun p -> J.Int (f p))
  in
  let p99 = sojourn (fun p -> p.Report.Percentile.p99) in
  let peak = List.fold_left (fun acc (r : Driver.t) -> Float.max acc r.Driver.rate) 0. curve1 in
  let p99_at_peak preset =
    List.find_opt (fun (r : Driver.t) -> r.Driver.preset = preset && r.Driver.rate = peak) curve1
    |> Option.fold ~none:J.Null ~some:p99
  in
  [
    ( "suite",
      J.Str
        "openloop sweep (arrayswap, 2^17 keys, zipf theta 6.0, poisson, 3000 requests/point, presets \
         B/C at retries 1, loads 30/60/120 req/kcycle)" );
    ("parallel_meaningful", J.Bool (host_cores >= 2));
    ( "outputs_identical",
      J.Bool (same "sweeps at jobs 1 and N" (text curve1) (text (Sweep.run { o with jobs = par_jobs })))
    );
    ("oracle_clean", J.Bool (List.for_all (fun (r : Driver.t) -> r.Driver.oracle_ok) curve1));
    ("wall_ms", J.Int wall_ms);
    ( "curve",
      J.List
        (List.map
           (fun (r : Driver.t) ->
             J.Obj
               [ ("preset", J.Str r.Driver.preset); ("rate", J.Float r.Driver.rate);
                 ("p50", sojourn (fun p -> p.Report.Percentile.p50) r); ("p99", p99 r);
                 ("p999", sojourn (fun p -> p.Report.Percentile.p999) r) ])
           curve1) );
    ( "tail_gate_at_peak",
      J.Obj [ ("load", J.Float peak); ("baseline_p99", p99_at_peak "B"); ("clear_p99", p99_at_peak "C") ]
    );
  ]

(* Per gate: its runner, the drift limit in percent, and the metrics the
   drift rule compares (read alike from the previous and the new record). *)
let gates =
  let none _ = [] in
  [
    ( "suite",
      ( suite_gate,
        10.,
        fun j ->
          let counters = match J.member "perfctr" j with Some (J.Obj c) -> c | _ -> [] in
          List.filter_map
            (fun (k, v) -> Option.map (fun v -> ("perfctr " ^ k, v)) (J.to_float v))
            counters
      ) );
    ("check", (check_gate, 10., none));
    ("sched", (sched_gate, 10., none));
    ("paper", (paper_gate, 25., scalars [ "cold_wall_ms" ]));
    ("streamcheck", (streamcheck_gate, 10., scalars [ "stream_overhead_factor"; "peak_live_lines" ]));
    ( "openloop",
      ( openloop_gate,
        10.,
        fun j ->
          List.filter_map
            (fun p ->
              match (J.member "preset" p, number "rate" p, number "p99" p) with
              | Some (J.Str preset), Some rate, Some p99 ->
                  Some (Printf.sprintf "%s p99 at load %s" preset (num rate), p99)
              | _ -> None)
            (curve j) ) );
  ]

let fail gate msg =
  Printf.eprintf "[gate %s] FAIL: %s\n%!" gate msg;
  exit 1

let run_gate name (run, limit_pct, metrics) =
  Printf.printf "[gate %s] running on %d job(s)...\n%!" name par_jobs;
  let fields, wall_ms, cpu_ms =
    timed (fun () ->
        try run () with Run.Check_failed msg -> fail name ("oracle violations: 1, limit 0\n" ^ msg))
  in
  let record =
    J.Obj
      (("gate", J.Str name) :: ("host_cores", J.Int host_cores) :: ("parallel_jobs", J.Int par_jobs)
      :: ("ocaml_version", J.Str Sys.ocaml_version) :: ("gate_wall_ms", J.Int wall_ms)
      :: ("gate_cpu_ms", J.Int cpu_ms) :: fields)
  in
  List.iter (fun p -> Option.iter (fail name) (p record)) (List.assoc name hard_gates);
  let file = "BENCH_" ^ name ^ ".json" in
  (match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | previous ->
      List.iter print_endline
        (drift_warnings ~gate:name ~limit_pct ~previous:(metrics previous) (metrics record))
  | exception (Sys_error _ | J.Parse_error _) -> ());
  let dir = if Sys.getenv_opt "INSIDE_DUNE" = None then "." else "gate-out" in
  (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ());
  let path = Filename.concat dir file in
  Out_channel.with_open_bin path (fun oc -> output_string oc (J.to_string_pretty record ^ "\n"));
  Printf.printf "[gate %s] passed in %d ms (%d ms CPU); wrote %s\n%!" name wall_ms cpu_ms path

let main names =
  let names = if names = [] || List.mem "all" names then List.map fst gates else names in
  match List.find_opt (fun n -> not (List.mem_assoc n gates)) names with
  | Some n ->
      Printf.eprintf "unknown gate %s; available: %s all\n" n (String.concat " " (List.map fst gates));
      exit 2
  | None -> List.iter (fun n -> run_gate n (List.assoc n gates)) names
