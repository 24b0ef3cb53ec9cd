(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the design-choice ablations, and times the simulator's
   core structures with Bechamel.

     dune exec bench/main.exe                  -- everything (quick-sized)
     dune exec bench/main.exe fig8             -- one artefact
     dune exec bench/main.exe -- --paper all   -- paper-sized sweep (slow)
     dune exec bench/main.exe -- --jobs 8 fig8 -- sweep on 8 domains
     dune exec bench/main.exe -- gate all      -- the @ci bench gates (Ci_gate)

   The suite runs on a pool of OCaml domains (--jobs N, default: host cores
   minus one) and is memoised on disk under _cache/ as one shard per
   (config, workload, seed) simulation keyed by the executable's digest, so
   later artefact invocations only re-simulate what is missing — and editing
   one workload after a rebuild re-simulates the whole sweep once but then
   shares shards across runs again. --no-cache bypasses the disk cache
   (it neither reads nor writes); --check validates every simulation with
   the execution oracle (and implies --no-cache, since a cache hit would
   skip validation); --only W1,W2 restricts the sweep to the named
   workloads; --sched NAME runs the sweep under a schedule scenario (see
   `clear_sim sched`).

   --perf runs a small fixed sweep sequentially and prints the engine's
   hot-path performance counters (Simrt.Perfctr) as a table.

   `gate NAME...` runs the named bench gates and writes their
   BENCH_<name>.json records (bench/ci_gate.mli).

   Artefacts: table1 table2 fig1 fig8 fig9 fig10 fig11 fig12 fig13 headline
   ablation micro all *)

module Experiments = Clear_repro.Experiments
module Run = Clear_repro.Run
module Table = Report.Table
module Config = Machine.Config
module Stats = Machine.Stats

(* Quick-sized defaults: the full 4-config x 19-benchmark sweep with a retry
   sweep per pair finishes in minutes, not hours. *)
let quick_suite_options =
  {
    Experiments.cores = 32;
    ops_per_thread = 150;
    seeds = [ 11; 23; 37 ];
    trim = 0;
    retry_choices = [ 1; 2; 4; 8 ];
    sched = Sched.Profile.symmetric;
  }

let progress label = Printf.eprintf "[bench] %s\n%!" label

let jobs = ref (Simrt.Pool.default_jobs ())

let use_disk_cache = ref true

let check = ref false

let perf = ref false

(* --sched NAME: run the whole artefact sweep under a schedule scenario.
   Scenario runs use distinct Suite_cache shard keys (the profile is part of
   the config digest), so they never collide with symmetric results. *)
let sched_profile = ref Sched.Profile.symmetric

(* --only W1,W2: restrict the suite sweep to the named workloads, which keeps
   a paper-sized (--paper) run affordable on a small host; figures derived
   from a restricted suite only contain the selected rows. *)
let only_workloads : Machine.Workload.t list option ref = ref None

(* The suite is computed once per process and reused by every figure
   (in-memory cache), and additionally memoised on disk per (config,
   workload, seed) shard (Suite_cache) so that subsequent invocations of the
   executable only re-simulate what changed. A --check run bypasses the disk
   cache in both directions: a hit would skip the oracle, and a checked
   result is no more reusable than an unchecked one. *)
let suite_cache : Experiments.suite option ref = ref None

let get_suite opts =
  match !suite_cache with
  | Some s -> s
  | None ->
      let use_cache = !use_disk_cache && not !check in
      let n_workloads =
        List.length (match !only_workloads with Some l -> l | None -> Workloads.Registry.all)
      in
      progress
        (Printf.sprintf
           "running full suite (4 configs x %d benchmarks x retry sweep) on %d domain(s)%s%s..."
           n_workloads !jobs
           (if !check then " with the execution oracle" else "")
           (if use_cache then ", shard cache on" else ""));
      let t0 = Unix.gettimeofday () in
      let s =
        Experiments.run_suite ~jobs:!jobs ~check:!check ~cache:use_cache
          ?workloads:!only_workloads ~progress opts
      in
      progress (Printf.sprintf "suite done in %.1f s" (Unix.gettimeofday () -. t0));
      suite_cache := Some s;
      s

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5) *)

let ablation_workloads () =
  [ Workloads.Mwobject.workload; Workloads.Bitcoin.workload; Workloads.Bst.workload ]

let ablation opts =
  let base = Experiments.config_of_letter opts "C" in
  let variants =
    [
      ("CLEAR", base);
      ("no failed-mode discovery", { base with Config.failed_mode_discovery = false });
      ("no CRT read locking", { base with Config.use_crt = false });
      ("no CRT decay", { base with Config.crt_decay = false });
      ("baseline (no CLEAR)", { base with Config.clear_enabled = false });
    ]
  in
  let t =
    Table.create ~title:"Ablation: CLEAR design choices (cycles, conversions)"
      ~columns:[ "Benchmark"; "Variant"; "Cycles"; "Aborts/commit"; "NS-CL+S-CL share"; "Fallback share" ]
  in
  List.iter
    (fun (w : Machine.Workload.t) ->
      List.iter
        (fun (label, cfg) ->
          let m =
            Run.measure ~jobs:!jobs ~check:!check cfg w ~seeds:opts.Experiments.seeds
              ~trim:opts.Experiments.trim
          in
          let mode m' = List.assoc m' m.Run.commit_mode_fractions in
          Table.add_row t
            [
              w.name;
              label;
              Printf.sprintf "%.0f" m.Run.cycles;
              Table.f2 m.Run.aborts_per_commit;
              Table.pct (mode Stats.Scl +. mode Stats.Nscl);
              Table.pct (mode Stats.Fallback_mode);
            ])
        variants;
      Table.add_separator t)
    (ablation_workloads ());
  t

(* ------------------------------------------------------------------ *)
(* Extension: HTM vs SLE front-ends (paper §4.1/§4.3 describe CLEAR for
   both; the paper evaluates HTM only). *)

let sle_comparison opts =
  let t =
    Table.create
      ~title:"Extension: speculation front-ends (cycles; SLE fallback takes the region's own lock)"
      ~columns:[ "Benchmark"; "B/HTM"; "B/SLE"; "W/HTM"; "W/SLE" ]
  in
  let workloads = [ "hashmap"; "kmeans-h"; "vacation-h"; "ssca2"; "bitcoin"; "stack" ] in
  List.iter
    (fun name ->
      let w = Workloads.Registry.find name in
      let cell letter frontend =
        let cfg = Config.with_frontend (Experiments.config_of_letter opts letter) frontend in
        let m =
          Run.measure ~jobs:!jobs ~check:!check cfg w ~seeds:opts.Experiments.seeds
            ~trim:opts.Experiments.trim
        in
        Printf.sprintf "%.0f" m.Run.cycles
      in
      Table.add_row t
        [
          name;
          cell "B" Config.Htm;
          cell "B" Config.Sle;
          cell "W" Config.Htm;
          cell "W" Config.Sle;
        ])
    workloads;
  t

(* ------------------------------------------------------------------ *)

let csv_dir : string option ref = ref None

(* Print the table; also export it as CSV when --csv DIR was given. *)
let emit name t =
  Table.print t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Report.Csv.save ~path t;
      Printf.eprintf "[bench] wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core structures and the simulator. *)

let bechamel_tests () =
  let open Bechamel in
  let alt_test =
    Test.make ~name:"alt:record+prepare (32 lines)"
      (Staged.stage (fun () ->
           let alt = Clear.Alt.create ~capacity:32 ~dir_set_of:(fun l -> l land 1023) () in
           for i = 0 to 31 do
             ignore (Clear.Alt.record alt (i * 17) ~written:(i land 1 = 0))
           done;
           Clear.Alt.prepare_locking alt ~lock_all:false ~extra:(fun _ -> false);
           Clear.Alt.lock_groups alt))
  in
  let ert_test =
    Test.make ~name:"ert:lookup_or_insert (64 pcs, 16 entries)"
      (Staged.stage (fun () ->
           let ert = Clear.Ert.create () in
           for pc = 0 to 63 do
             ignore (Clear.Ert.lookup_or_insert ert ~pc)
           done))
  in
  let cache_test =
    Test.make ~name:"cache:insert sweep (1024 lines)"
      (Staged.stage (fun () ->
           let c = Mem.Cache.create ~sets:64 ~ways:12 in
           for l = 0 to 1023 do
             ignore (Mem.Cache.insert c l)
           done))
  in
  let analysis_test =
    let ars = (Workloads.Registry.find "bayes").Machine.Workload.ars in
    Test.make ~name:"analysis:classify bayes (14 ARs)"
      (Staged.stage (fun () -> ignore (Clear.Analysis.classify_workload ars)))
  in
  let engine_test =
    let cfg =
      { Config.clear_power with Config.cores = 4; ops_per_thread = 20; memory_words = 1 lsl 20 }
    in
    Test.make ~name:"engine:4 cores x 20 ops of bitcoin"
      (Staged.stage (fun () -> ignore (Machine.Engine.run_workload cfg Workloads.Bitcoin.workload)))
  in
  [ alt_test; ert_test; cache_test; analysis_test; engine_test ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:(Some 500) () in
  let tests = bechamel_tests () in
  let t = Table.create ~title:"Bechamel micro-benchmarks" ~columns:[ "Test"; "ns/run" ] in
  List.iter
    (fun test ->
      List.iter
        (fun (name, result) ->
          let estimate =
            try
              let a =
                Analyze.one (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
                  Instance.monotonic_clock result
              in
              match Analyze.OLS.estimates a with Some [ e ] -> e | Some _ | None -> nan
            with _ -> nan
          in
          (* Report failed estimates explicitly rather than printing "nan". *)
          let cell =
            if Float.is_nan estimate then "n/a (no estimate)" else Printf.sprintf "%.0f" estimate
          in
          Table.add_row t [ name; cell ])
        (* Sort by the test-name key only: Bechamel result values contain
           abstract structures for which polymorphic compare is meaningless. *)
        (Benchmark.all cfg instances test |> Hashtbl.to_seq |> List.of_seq
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)))
    tests;
  emit "micro" t

(* Hot-path counter dump over a small fixed sweep. *)
let run_perf opts =
  let ws = match !only_workloads with Some l -> l | None -> ablation_workloads () in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Engine hot-path counters (%d workloads x 4 configs x seeds)"
           (List.length ws))
      ~columns:[ "Counter"; "Total" ]
  in
  List.iter
    (fun (n, v) -> Table.add_row t [ n; string_of_int v ])
    (Simrt.Perfctr.to_list (Experiments.perf_counters opts ws));
  emit "perf" t

let artefacts opts =
  [
    ("table1", fun () -> emit "table1" (Experiments.table1 ()));
    ("table2", fun () -> emit "table2" (Experiments.table2 opts));
    ("fig1", fun () -> emit "fig1" (Experiments.fig1 (get_suite opts)));
    ("fig8", fun () ->
        emit "fig8" (Experiments.fig8 (get_suite opts));
        emit "fig8_discovery" (Experiments.fig8_discovery (get_suite opts)));
    ("fig9", fun () -> emit "fig9" (Experiments.fig9 (get_suite opts)));
    ("fig10", fun () -> emit "fig10" (Experiments.fig10 (get_suite opts)));
    ("fig11", fun () -> emit "fig11" (Experiments.fig11 (get_suite opts)));
    ("fig12", fun () -> emit "fig12" (Experiments.fig12 (get_suite opts)));
    ("fig13", fun () -> emit "fig13" (Experiments.fig13 (get_suite opts)));
    ("headline", fun () -> emit "headline" (Experiments.headline (get_suite opts)));
    ("ablation", fun () -> emit "ablation" (ablation opts));
    ("sle", fun () -> emit "sle" (sle_comparison opts));
    ("storage", fun () -> emit "storage" (Experiments.storage ()));
    ("micro", fun () -> run_bechamel ());
  ]

let main args =
  let paper = List.mem "--paper" args in
  let opts = if paper then Experiments.default_options else quick_suite_options in
  let rec strip_flags acc = function
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        strip_flags acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> jobs := Simrt.Pool.clamp_jobs ~context:"bench" n
        | None ->
            Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
            exit 2);
        strip_flags acc rest
    | "--perf" :: rest ->
        perf := true;
        strip_flags acc rest
    | "--no-cache" :: rest ->
        use_disk_cache := false;
        strip_flags acc rest
    | "--check" :: rest ->
        check := true;
        strip_flags acc rest
    | "--sched" :: name :: rest ->
        (match Sched.Scenarios.find (String.lowercase_ascii name) with
        | Some p -> sched_profile := p
        | None ->
            Printf.eprintf "--sched expects one of %s, got %s\n"
              (String.concat ", " Sched.Scenarios.names) name;
            exit 2);
        strip_flags acc rest
    | "--only" :: names :: rest ->
        let picked =
          String.split_on_char ',' names
          |> List.map (fun n ->
                 let n = String.trim n in
                 match Workloads.Registry.find n with
                 | w -> w
                 | exception Not_found ->
                     Printf.eprintf "--only: unknown workload %s; available: %s\n" n
                       (String.concat " " Workloads.Registry.names);
                     exit 2)
        in
        only_workloads := Some picked;
        strip_flags acc rest
    | a :: rest -> strip_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_flags [] args in
  let opts = { opts with Experiments.sched = !sched_profile } in
  if not (Sched.Profile.is_symmetric !sched_profile) then
    progress
      (Printf.sprintf "schedule scenario: %s (%s)" !sched_profile.Sched.Profile.name
         !sched_profile.Sched.Profile.description);
  let wanted = List.filter (fun a -> a <> "--paper") args in
  let wanted =
    if wanted = [] && !perf then [] (* --perf alone: just the counter dump *)
    else if wanted = [] || List.mem "all" wanted then List.map fst (artefacts opts)
    else wanted
  in
  let available = artefacts opts in
  List.iter
    (fun name ->
      match List.assoc_opt name available with
      | Some f ->
          f ();
          print_newline ()
      | None ->
          Printf.eprintf "unknown artefact %s; available: %s\n" name
            (String.concat " " (List.map fst available));
          exit 2)
    wanted;
  if !perf then run_perf opts

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "gate" :: names -> Ci_gate.main names
  | args -> main args
