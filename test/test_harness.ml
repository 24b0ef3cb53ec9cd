(* Tests for the experiment harness: measurements, retry sweeps and figure
   table generation on a miniature suite. *)

module Run = Clear_repro.Run
module Experiments = Clear_repro.Experiments
module Config = Machine.Config
module Table = Report.Table

let micro_options =
  {
    Experiments.cores = 4;
    ops_per_thread = 30;
    seeds = [ 3; 5 ];
    trim = 0;
    retry_choices = [ 4 ];
    sched = Sched.Profile.symmetric;
  }

let micro_workloads = [ Workloads.Arrayswap.workload; Workloads.Bitcoin.workload ]

let suite = lazy (Experiments.run_suite ~workloads:micro_workloads micro_options)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_measure_basics () =
  let cfg = Experiments.config_of_letter micro_options "B" in
  let m = Run.measure cfg Workloads.Arrayswap.workload ~seeds:[ 1; 2 ] ~trim:0 in
  Alcotest.(check string) "preset letter" "B" m.Run.preset;
  Alcotest.(check string) "workload name" "arrayswap" m.Run.workload;
  Alcotest.(check bool) "cycles positive" true (m.Run.cycles > 0.0);
  Alcotest.(check bool) "energy positive" true (m.Run.energy > 0.0);
  Alcotest.(check bool) "fractions bounded" true
    (List.for_all (fun (_, v) -> v >= 0.0 && v <= 1.0) m.Run.commit_mode_fractions)

let test_measure_deterministic () =
  let cfg = Experiments.config_of_letter micro_options "W" in
  let m1 = Run.measure cfg Workloads.Bitcoin.workload ~seeds:[ 1 ] ~trim:0 in
  let m2 = Run.measure cfg Workloads.Bitcoin.workload ~seeds:[ 1 ] ~trim:0 in
  Alcotest.(check (float 1e-9)) "same cycles" m1.Run.cycles m2.Run.cycles

let test_best_retries_picks_minimum () =
  let cfg = Experiments.config_of_letter micro_options "B" in
  let best =
    Run.measure_best_retries cfg Workloads.Arrayswap.workload ~seeds:[ 1 ] ~trim:0
      ~retry_choices:[ 1; 8 ]
  in
  let m1 = Run.measure (Config.with_retries cfg 1) Workloads.Arrayswap.workload ~seeds:[ 1 ] ~trim:0 in
  let m8 = Run.measure (Config.with_retries cfg 8) Workloads.Arrayswap.workload ~seeds:[ 1 ] ~trim:0 in
  Alcotest.(check (float 1e-9)) "best is the min" (min m1.Run.cycles m8.Run.cycles) best.Run.cycles

let test_config_of_letter () =
  Alcotest.(check bool) "B has clear off" false
    (Experiments.config_of_letter micro_options "B").Config.clear_enabled;
  Alcotest.(check bool) "W has clear on" true
    (Experiments.config_of_letter micro_options "W").Config.clear_enabled;
  Alcotest.(check int) "cores applied" 4 (Experiments.config_of_letter micro_options "C").Config.cores;
  Alcotest.check_raises "unknown letter" (Invalid_argument "config_of_letter: unknown preset X")
    (fun () -> ignore (Experiments.config_of_letter micro_options "X"))

(* The tentpole guarantee: the parallel sweep is bit-identical to the
   sequential one. Run.t contains only strings, ints, floats and variant
   lists, so structural equality is exact (floats must match to the last
   bit, not within a tolerance). *)
let test_suite_parallel_identical () =
  let seq = Experiments.run_suite ~jobs:1 ~workloads:micro_workloads micro_options in
  let par = Experiments.run_suite ~jobs:4 ~workloads:micro_workloads micro_options in
  Alcotest.(check bool) "jobs:4 suite equals jobs:1 suite" true
    (seq.Experiments.rows = par.Experiments.rows);
  List.iter2
    (fun (wname, per_seq) (wname', per_par) ->
      Alcotest.(check string) "same workload order" wname wname';
      List.iter2
        (fun (l, (a : Run.t)) (l', (b : Run.t)) ->
          Alcotest.(check string) "same preset order" l l';
          Alcotest.(check (float 0.0)) (wname ^ "/" ^ l ^ " cycles") a.Run.cycles b.Run.cycles;
          Alcotest.(check (float 0.0)) (wname ^ "/" ^ l ^ " energy") a.Run.energy b.Run.energy;
          Alcotest.(check int) (wname ^ "/" ^ l ^ " retries") a.Run.retries b.Run.retries)
        per_seq per_par)
    seq.Experiments.rows par.Experiments.rows

let test_measure_parallel_identical () =
  let cfg = Experiments.config_of_letter micro_options "W" in
  let a =
    Run.measure_best_retries ~jobs:1 cfg Workloads.Bitcoin.workload ~seeds:[ 1; 2; 3 ] ~trim:0
      ~retry_choices:[ 2; 5 ]
  in
  let b =
    Run.measure_best_retries ~jobs:3 cfg Workloads.Bitcoin.workload ~seeds:[ 1; 2; 3 ] ~trim:0
      ~retry_choices:[ 2; 5 ]
  in
  Alcotest.(check bool) "measure_best_retries jobs-invariant" true (a = b)

let test_suite_shape () =
  let s = Lazy.force suite in
  Alcotest.(check int) "two workloads" 2 (List.length s.Experiments.rows);
  List.iter
    (fun (_, per) -> Alcotest.(check int) "four presets" 4 (List.length per))
    s.Experiments.rows

let test_figures_render () =
  let s = Lazy.force suite in
  let tables =
    [
      Experiments.fig1 s;
      Experiments.fig8 s;
      Experiments.fig8_discovery s;
      Experiments.fig9 s;
      Experiments.fig10 s;
      Experiments.fig11 s;
      Experiments.fig12 s;
      Experiments.fig13 s;
      Experiments.headline s;
    ]
  in
  List.iter
    (fun t ->
      let str = Table.to_string t in
      Alcotest.(check bool) "renders rows" true (String.length str > 80);
      Alcotest.(check bool) "mentions a workload or metric" true
        (contains str "arrayswap" || contains str "Paper"))
    tables

let test_fig8_baseline_normalised_to_one () =
  let s = Lazy.force suite in
  let str = Table.to_string (Experiments.fig8 s) in
  Alcotest.(check bool) "B column is 1.000" true (contains str "1.000")

let test_table1_rows () =
  let str = Table.to_string (Experiments.table1 ()) in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " listed") true (contains str name))
    Workloads.Registry.names

let test_table2_mentions_htm () =
  let str = Table.to_string (Experiments.table2 micro_options) in
  Alcotest.(check bool) "mentions HTM" true (contains str "HTM");
  Alcotest.(check bool) "mentions MESI" true (contains str "MESI")

(* ------------------------------------------------------------------ *)
(* Per-simulation shard cache *)

module Suite_cache = Clear_repro.Suite_cache

let test_shard_roundtrip () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "C" in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  let stats = Run.run_sim { Run.cfg; workload = w; seed = 9 } in
  Alcotest.(check bool) "miss before save" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:9 = None);
  Suite_cache.save_shard cfg ~workload:name ~seed:9 stats;
  (match Suite_cache.load_shard cfg ~workload:name ~seed:9 with
  | None -> Alcotest.fail "hit expected after save"
  | Some s ->
      Alcotest.(check int) "cycles preserved" (Machine.Stats.total_cycles stats)
        (Machine.Stats.total_cycles s);
      Alcotest.(check int) "commits preserved" (Machine.Stats.commits stats)
        (Machine.Stats.commits s));
  (* the key is the full (config, workload, seed) triple *)
  Alcotest.(check bool) "other seed misses" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:10 = None);
  Alcotest.(check bool) "other workload misses" true
    (Suite_cache.load_shard cfg ~workload:"other" ~seed:9 = None);
  Alcotest.(check bool) "other config misses" true
    (Suite_cache.load_shard
       (Experiments.config_of_letter micro_options "B")
       ~workload:name ~seed:9
    = None);
  Alcotest.(check bool) "clear removes it" true (Suite_cache.clear () >= 1);
  Alcotest.(check bool) "miss after clear" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:9 = None)

let test_shard_prune_stale () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "B" in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  Suite_cache.save_shard cfg ~workload:name ~seed:4 (Run.run_sim { Run.cfg; workload = w; seed = 4 });
  let stale = Filename.concat Suite_cache.dir "shard-deadbeef.bin" in
  Out_channel.with_open_bin stale (fun oc -> Marshal.to_channel oc "not-this-build" []);
  Suite_cache.prune_stale ();
  Alcotest.(check bool) "stale entry removed" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh shard kept" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:4 <> None);
  ignore (Suite_cache.clear ())

(* Changing only the schedule profile must change the shard key: a shard
   written under the symmetric profile is invisible to a numa2x sweep and
   vice versa, while each profile still hits its own shards. *)
let test_shard_sched_keying () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "C" in
  let cfg_numa = Config.with_sched cfg Sched.Scenarios.numa2x in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  Suite_cache.save_shard cfg ~workload:name ~seed:9 (Run.run_sim { Run.cfg; workload = w; seed = 9 });
  Alcotest.(check bool) "numa2x misses symmetric shard" true
    (Suite_cache.load_shard cfg_numa ~workload:name ~seed:9 = None);
  Suite_cache.save_shard cfg_numa ~workload:name ~seed:9
    (Run.run_sim { Run.cfg = cfg_numa; workload = w; seed = 9 });
  Alcotest.(check bool) "numa2x shard hits" true
    (Suite_cache.load_shard cfg_numa ~workload:name ~seed:9 <> None);
  Alcotest.(check bool) "symmetric shard still hits" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:9 <> None);
  ignore (Suite_cache.clear ())

(* Partial-hit splice across a sched-profile change: warm the cache with one
   workload under numa2x, then sweep both workloads under numa2x (half hit,
   half simulated, spliced in task order) — the result must be bit-identical
   to a cold uncached numa2x sweep. A symmetric sweep warmed first makes
   sure foreign-profile shards never leak into the splice. *)
let test_partial_hit_splice_sched () =
  ignore (Suite_cache.clear ());
  let numa_options = { micro_options with Experiments.sched = Sched.Scenarios.numa2x } in
  ignore (Experiments.run_suite ~cache:true ~workloads:micro_workloads micro_options);
  ignore
    (Experiments.run_suite ~cache:true ~workloads:[ Workloads.Arrayswap.workload ] numa_options);
  let messages = ref [] in
  let progress m = messages := m :: !messages in
  let warm =
    Experiments.run_suite ~cache:true ~workloads:micro_workloads ~progress numa_options
  in
  Alcotest.(check bool) "sweep was a partial hit" true
    (List.exists (fun m -> contains m "shard(s) hit") !messages);
  let cold = Experiments.run_suite ~workloads:micro_workloads numa_options in
  Alcotest.(check bool) "spliced sweep equals cold sweep" true
    (warm.Experiments.rows = cold.Experiments.rows);
  ignore (Suite_cache.clear ())

(* prune_stale also sweeps up legacy whole-suite entries and shards written
   by other builds, without touching fresh shards or unrelated files. *)
let test_prune_legacy_and_clear_scope () =
  ignore (Suite_cache.clear ());
  let cfg = Experiments.config_of_letter micro_options "B" in
  let w = Workloads.Arrayswap.workload in
  let name = w.Machine.Workload.name in
  Suite_cache.save_shard cfg ~workload:name ~seed:4 (Run.run_sim { Run.cfg; workload = w; seed = 4 });
  let legacy = Filename.concat Suite_cache.dir "suite-0123abcd.bin" in
  Out_channel.with_open_bin legacy (fun oc -> Marshal.to_channel oc "some-old-build" []);
  let stale = Filename.concat Suite_cache.dir "shard-cafebabe.bin" in
  Out_channel.with_open_bin stale (fun oc -> Marshal.to_channel oc "not-this-build" []);
  let unrelated = Filename.concat Suite_cache.dir "notes.txt" in
  Out_channel.with_open_bin unrelated (fun oc -> Out_channel.output_string oc "keep me");
  Suite_cache.prune_stale ();
  Alcotest.(check bool) "legacy suite entry pruned" false (Sys.file_exists legacy);
  Alcotest.(check bool) "stale shard pruned" false (Sys.file_exists stale);
  Alcotest.(check bool) "fresh shard survives prune" true
    (Suite_cache.load_shard cfg ~workload:name ~seed:4 <> None);
  Alcotest.(check bool) "unrelated file survives prune" true (Sys.file_exists unrelated);
  Alcotest.(check bool) "clear removes the fresh shard" true (Suite_cache.clear () >= 1);
  Alcotest.(check bool) "unrelated file survives clear" true (Sys.file_exists unrelated);
  Sys.remove unrelated

let test_suite_cached_identical () =
  ignore (Suite_cache.clear ());
  let messages = ref [] in
  let progress m = messages := m :: !messages in
  let s1 = Experiments.run_suite ~cache:true ~workloads:micro_workloads ~progress micro_options in
  let s2 = Experiments.run_suite ~cache:true ~workloads:micro_workloads ~progress micro_options in
  Alcotest.(check bool) "second sweep hit the cache" true
    (List.exists (fun m -> contains m "shard(s) hit") !messages);
  Alcotest.(check string) "warm sweep identical"
    (Table.to_string (Experiments.fig8 s1))
    (Table.to_string (Experiments.fig8 s2));
  let s3 = Experiments.run_suite ~workloads:micro_workloads micro_options in
  Alcotest.(check string) "identical to uncached sweep"
    (Table.to_string (Experiments.fig8 s1))
    (Table.to_string (Experiments.fig8 s3));
  ignore (Suite_cache.clear ())

(* ------------------------------------------------------------------ *)
(* CLI argument validation: out-of-range values are rejected where the
   command line is parsed, with a one-line error and exit status 2, never
   an uncaught library exception (cmdliner's exit 125). *)

let clear_sim = Filename.concat (Filename.concat ".." "bin") "clear_sim.exe"

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

let run_cli args =
  let err = Filename.temp_file "clear_sim" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote clear_sim) args (Filename.quote err))
  in
  let lines = read_lines err in
  Sys.remove err;
  (code, lines)

let test_cli_rejects args () =
  let code, lines = run_cli args in
  Alcotest.(check int) (args ^ ": exit status") 2 code;
  match lines with
  | [ line ] ->
      Alcotest.(check bool) (args ^ ": names the program") true
        (String.length line > 10 && String.sub line 0 10 = "clear_sim:")
  | _ -> Alcotest.failf "%s: expected one line on stderr, got %d" args (List.length lines)

let test_cli_accepts_core_bounds () =
  List.iter
    (fun args ->
      let code, _ = run_cli args in
      Alcotest.(check int) (args ^ ": exit status") 0 code)
    [ "run --cores 1 --ops 2"; "run --cores 62 --ops 1" ]

let test_cli_accepts_zero_retries () =
  let code, _ = run_cli "run --cores 2 --ops 1 --retries 0" in
  Alcotest.(check int) "--retries 0: exit status" 0 code

let () =
  Alcotest.run "harness"
    [
      ( "run",
        [
          Alcotest.test_case "measure basics" `Quick test_measure_basics;
          Alcotest.test_case "measure deterministic" `Quick test_measure_deterministic;
          Alcotest.test_case "best retries" `Quick test_best_retries_picks_minimum;
          Alcotest.test_case "config_of_letter" `Quick test_config_of_letter;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "suite jobs:4 == jobs:1" `Slow test_suite_parallel_identical;
          Alcotest.test_case "measure jobs:3 == jobs:1" `Slow test_measure_parallel_identical;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "suite shape" `Slow test_suite_shape;
          Alcotest.test_case "figures render" `Slow test_figures_render;
          Alcotest.test_case "fig8 normalised" `Slow test_fig8_baseline_normalised_to_one;
          Alcotest.test_case "table1 rows" `Quick test_table1_rows;
          Alcotest.test_case "table2 content" `Quick test_table2_mentions_htm;
        ] );
      ( "shard cache",
        [
          Alcotest.test_case "roundtrip + keying" `Quick test_shard_roundtrip;
          Alcotest.test_case "prune stale" `Quick test_shard_prune_stale;
          Alcotest.test_case "sched profile keying" `Quick test_shard_sched_keying;
          Alcotest.test_case "partial-hit splice across sched change" `Slow
            test_partial_hit_splice_sched;
          Alcotest.test_case "prune legacy + clear scope" `Quick
            test_prune_legacy_and_clear_scope;
          Alcotest.test_case "cached suite identical" `Slow test_suite_cached_identical;
        ] );
      ( "cli",
        List.map
          (fun args -> Alcotest.test_case ("rejects " ^ args) `Quick (test_cli_rejects args))
          [
            "run --cores 0";
            "run --cores 63";
            "run --cores 64";
            "run --cores 65";
            "openloop --loads 0";
            "openloop --requests 0";
          ]
        @ [ Alcotest.test_case "accepts 1 and 62 cores" `Quick test_cli_accepts_core_bounds ]
        @ List.map
            (fun args -> Alcotest.test_case ("rejects " ^ args) `Quick (test_cli_rejects args))
            [
              "check -w stack -c B --ops 0";
              "run --ops=-5";
              "run --retries=-1";
              "sched --ops 0";
            ]
        @ [ Alcotest.test_case "accepts 0 retries" `Quick test_cli_accepts_zero_retries ] );
    ]
