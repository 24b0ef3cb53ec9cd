module Table = Report.Table
module Summary = Simrt.Summary

type options = {
  cores : int;
  ops_per_thread : int;
  seeds : int list;
  trim : int;
  retry_choices : int list;
  sched : Sched.Profile.t;
}

let default_options =
  {
    cores = 32;
    ops_per_thread = 300;
    seeds = [ 11; 23; 37; 41; 53; 67; 79; 83; 97; 101 ];
    trim = 3;
    retry_choices = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
    sched = Sched.Profile.symmetric;
  }

let quick_options =
  {
    cores = 16;
    ops_per_thread = 120;
    seeds = [ 11; 23; 37 ];
    trim = 0;
    retry_choices = [ 2; 5; 8 ];
    sched = Sched.Profile.symmetric;
  }

type suite = { options : options; rows : (string * (string * Run.t) list) list }

let apply_options (opts : options) (cfg : Machine.Config.t) =
  Machine.Config.with_sched
    { cfg with Machine.Config.cores = opts.cores; ops_per_thread = opts.ops_per_thread }
    opts.sched

let presets opts =
  [
    ("B", apply_options opts Machine.Config.baseline);
    ("P", apply_options opts Machine.Config.power_tm);
    ("C", apply_options opts Machine.Config.clear_rw);
    ("W", apply_options opts Machine.Config.clear_power);
  ]

let config_of_letter opts letter =
  match List.assoc_opt letter (presets opts) with
  | Some cfg -> cfg
  | None -> invalid_arg ("config_of_letter: unknown preset " ^ letter)

(* The whole suite is flattened into one task list whose unit of work is a
   single (config, workload, seed) simulation, submitted to a domain pool.
   [Simrt.Pool.parallel_map] preserves input order and every simulation is
   self-contained (own store/hierarchy/stats, explicit seeding), so the
   aggregation below walks the same nested cross-product in the same order
   regardless of [jobs] — results are bit-identical to the sequential run.

   With [~cache:true] each simulation is memoised on disk as one
   [Suite_cache] shard; hits are spliced back in task order, so a partially
   cached sweep still aggregates identically to an uncached one. *)
let run_suite ?(jobs = 1) ?(check = false) ?stream ?(cache = false)
    ?(workloads = Workloads.Registry.all) ?(progress = fun _ -> ()) opts =
  let tasks =
    List.concat_map
      (fun (w : Machine.Workload.t) ->
        List.concat_map
          (fun (_letter, cfg) ->
            List.concat_map
              (fun n -> Run.sims (Machine.Config.with_retries cfg n) w ~seeds:opts.seeds)
              opts.retry_choices)
          (presets opts))
      workloads
  in
  let run_all tasks = Simrt.Pool.parallel_map ~jobs (Run.runner ?stream ~check) tasks in
  let results =
    if not cache then Array.of_list (run_all tasks)
    else begin
      Suite_cache.prune_stale ();
      let load (s : Run.sim) =
        Suite_cache.load_shard s.Run.cfg ~workload:s.Run.workload.Machine.Workload.name
          ~seed:s.Run.seed
      in
      let tagged = List.map (fun t -> (t, load t)) tasks in
      let misses = List.filter_map (fun (t, c) -> if Option.is_none c then Some t else None) tagged in
      let hits = List.length tasks - List.length misses in
      if hits > 0 then
        progress (Printf.sprintf "cache: %d/%d shard(s) hit" hits (List.length tasks));
      let fresh = run_all misses in
      List.iter2
        (fun (s : Run.sim) stats ->
          Suite_cache.save_shard s.Run.cfg ~workload:s.Run.workload.Machine.Workload.name
            ~seed:s.Run.seed stats)
        misses fresh;
      let remaining = ref fresh in
      Array.of_list
        (List.map
           (fun (_, c) ->
             match (c, !remaining) with
             | Some s, _ -> s
             | None, s :: tl ->
                 remaining := tl;
                 s
             | None, [] -> assert false)
           tagged)
    end
  in
  let per_seed = List.length opts.seeds in
  let next = ref 0 in
  let take () =
    let runs = List.init per_seed (fun j -> results.(!next + j)) in
    next := !next + per_seed;
    runs
  in
  let rows =
    List.map
      (fun (w : Machine.Workload.t) ->
        let per_preset =
          List.map
            (fun (letter, cfg) ->
              progress (Printf.sprintf "%s/%s" w.name letter);
              let candidates =
                List.map
                  (fun n ->
                    Run.of_stats (Machine.Config.with_retries cfg n) w ~trim:opts.trim (take ()))
                  opts.retry_choices
              in
              (letter, Run.best candidates))
            (presets opts)
        in
        (w.name, per_preset))
      workloads
  in
  { options = opts; rows }

let get suite workload letter =
  match List.assoc_opt workload suite.rows with
  | None -> invalid_arg ("suite: unknown workload " ^ workload)
  | Some per -> (
      match List.assoc_opt letter per with
      | Some r -> r
      | None -> invalid_arg ("suite: unknown preset " ^ letter))

let letters = [ "B"; "P"; "C"; "W" ]

let workload_names suite = List.map fst suite.rows

(* Append a geomean row computed from per-workload values. *)
let geo values = Summary.geomean values

(* Accumulate per-key value lists while walking the suite. *)
let add_to_bucket tbl key v =
  Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])

let bucket tbl key = Option.value (Hashtbl.find_opt tbl key) ~default:[]

(* ------------------------------------------------------------------ *)

let table1 () =
  let t =
    Table.create ~title:"Table 1: Characterization of ARs (static analysis)"
      ~columns:[ "Benchmark"; "# of ARs"; "Immutable"; "Likely immutable"; "Mutable" ]
  in
  List.iter
    (fun (w : Machine.Workload.t) ->
      let classified = Clear.Analysis.classify_workload w.ars in
      let im, li, mu = Clear.Analysis.count classified in
      Table.add_row t
        [ w.name; string_of_int (List.length w.ars); string_of_int im; string_of_int li; string_of_int mu ])
    Workloads.Registry.all;
  t

let table2 opts =
  let t = Table.create ~title:"Table 2: Baseline system configuration" ~columns:[ "Setting" ] in
  let cfg = config_of_letter opts "B" in
  String.split_on_char '\n' (Format.asprintf "%a" Machine.Config.pp cfg)
  |> List.iter (fun line -> Table.add_row t [ line ]);
  t

let fig1 suite =
  let t =
    Table.create ~title:"Figure 1: ARs that keep their footprint on the first retry (baseline)"
      ~columns:[ "Benchmark"; "stable-footprint ratio" ]
  in
  let values =
    List.map
      (fun name ->
        let r = get suite name "B" in
        Table.add_row t [ name; Table.f2 r.Run.fig1_ratio ];
        r.Run.fig1_ratio)
      (workload_names suite)
  in
  Table.add_separator t;
  Table.add_row t [ "average"; Table.f2 (Summary.mean values) ];
  t

let normalised_table suite ~title ~value =
  let t = Table.create ~title ~columns:("Benchmark" :: letters) in
  let per_letter = Hashtbl.create 4 in
  List.iter
    (fun name ->
      let base = value (get suite name "B") in
      let cells =
        List.map
          (fun letter ->
            let v = value (get suite name letter) in
            let norm = if base > 0.0 then v /. base else 0.0 in
            add_to_bucket per_letter letter norm;
            Table.f3 norm)
          letters
      in
      Table.add_row t (name :: cells))
    (workload_names suite);
  Table.add_separator t;
  Table.add_row t
    ("geomean" :: List.map (fun letter -> Table.f3 (geo (bucket per_letter letter))) letters);
  t

let fig8 suite =
  normalised_table suite ~title:"Figure 8: Normalized execution time (lower is better)"
    ~value:(fun r -> r.Run.cycles)

let fig8_discovery suite =
  let d =
    Table.create ~title:"Figure 8 (companion): time running aborted in discovery"
      ~columns:("Benchmark" :: letters)
  in
  List.iter
    (fun name ->
      Table.add_row d
        (name :: List.map (fun letter -> Table.pct (get suite name letter).Run.discovery_fraction) letters))
    (workload_names suite);
  d

let fig9 suite =
  let t =
    Table.create ~title:"Figure 9: Aborts per committed transaction" ~columns:("Benchmark" :: letters)
  in
  let per_letter = Hashtbl.create 4 in
  List.iter
    (fun name ->
      Table.add_row t
        (name
        :: List.map
             (fun letter ->
               let v = (get suite name letter).Run.aborts_per_commit in
               add_to_bucket per_letter letter v;
               Table.f2 v)
             letters))
    (workload_names suite);
  Table.add_separator t;
  Table.add_row t
    ("average"
    :: List.map (fun letter -> Table.f2 (Summary.mean (bucket per_letter letter))) letters);
  t

let fig10 suite =
  normalised_table suite ~title:"Figure 10: Normalized energy consumption (lower is better)"
    ~value:(fun r -> r.Run.energy)

let fig11 suite =
  let t =
    Table.create ~title:"Figure 11: Abort breakdown per type (aborts per commit)"
      ~columns:[ "Benchmark"; "Cfg"; "MemConflict"; "ExplicitFB"; "OtherFB"; "Others" ]
  in
  List.iter
    (fun name ->
      List.iter
        (fun letter ->
          let r = get suite name letter in
          let cat c = List.assoc c r.Run.abort_categories in
          Table.add_row t
            [
              name;
              letter;
              Table.f2 (cat Machine.Abort.Cat_memory_conflict);
              Table.f2 (cat Machine.Abort.Cat_explicit_fallback);
              Table.f2 (cat Machine.Abort.Cat_other_fallback);
              Table.f2 (cat Machine.Abort.Cat_others);
            ])
        letters;
      Table.add_separator t)
    (workload_names suite);
  t

let fig12 suite =
  let t =
    Table.create ~title:"Figure 12: Commit breakdown per mode"
      ~columns:[ "Benchmark"; "Cfg"; "Speculative"; "S-CL"; "NS-CL"; "Fallback" ]
  in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun letter ->
          let r = get suite name letter in
          let m mode = List.assoc mode r.Run.commit_mode_fractions in
          List.iter
            (fun mode -> add_to_bucket totals (letter, mode) (m mode))
            Machine.Stats.all_commit_modes;
          Table.add_row t
            [
              name;
              letter;
              Table.pct (m Machine.Stats.Speculative);
              Table.pct (m Machine.Stats.Scl);
              Table.pct (m Machine.Stats.Nscl);
              Table.pct (m Machine.Stats.Fallback_mode);
            ])
        letters;
      Table.add_separator t)
    (workload_names suite);
  List.iter
    (fun letter ->
      let avg mode = Summary.mean (bucket totals (letter, mode)) in
      Table.add_row t
        [
          "average";
          letter;
          Table.pct (avg Machine.Stats.Speculative);
          Table.pct (avg Machine.Stats.Scl);
          Table.pct (avg Machine.Stats.Nscl);
          Table.pct (avg Machine.Stats.Fallback_mode);
        ])
    letters;
  t

let fig13 suite =
  let t =
    Table.create ~title:"Figure 13: Commit breakdown per retries (excluding 0-retry commits)"
      ~columns:[ "Benchmark"; "Cfg"; "1-retry"; "n-retry"; "Fallback" ]
  in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun name ->
      List.iter
        (fun letter ->
          let r = get suite name letter in
          let one, many, fb = r.Run.retry_breakdown in
          add_to_bucket totals letter (one, many, fb);
          Table.add_row t [ name; letter; Table.pct one; Table.pct many; Table.pct fb ])
        letters;
      Table.add_separator t)
    (workload_names suite);
  List.iter
    (fun letter ->
      let rows = bucket totals letter in
      let avg f = Summary.mean (List.map f rows) in
      Table.add_row t
        [
          "average";
          letter;
          Table.pct (avg (fun (a, _, _) -> a));
          Table.pct (avg (fun (_, b, _) -> b));
          Table.pct (avg (fun (_, _, c) -> c));
        ])
    letters;
  t

let headline suite =
  let names = workload_names suite in
  let mean_over letter f = Summary.mean (List.map (fun n -> f (get suite n letter)) names) in
  let norm_geo letter f =
    geo
      (List.map
         (fun n ->
           let b = f (get suite n "B") in
           let v = f (get suite n letter) in
           if b > 0.0 then v /. b else 1.0)
         names)
  in
  let t =
    Table.create ~title:"Headline numbers: paper vs. measured"
      ~columns:[ "Metric"; "Paper"; "Measured" ]
  in
  Table.add_row t
    [
      "single-retry commits, baseline";
      "35.4%";
      Table.pct (mean_over "B" (fun r -> let a, _, _ = r.Run.retry_breakdown in a));
    ];
  Table.add_row t
    [
      "single-retry commits, CLEAR+PowerTM";
      "64.4%";
      Table.pct (mean_over "W" (fun r -> let a, _, _ = r.Run.retry_breakdown in a));
    ];
  Table.add_row t
    [
      "fallback share, baseline";
      "37.2%";
      Table.pct (mean_over "B" (fun r -> let _, _, c = r.Run.retry_breakdown in c));
    ];
  Table.add_row t
    [
      "fallback share, CLEAR+PowerTM";
      "15.4%";
      Table.pct (mean_over "W" (fun r -> let _, _, c = r.Run.retry_breakdown in c));
    ];
  Table.add_row t
    [ "aborts/commit, baseline"; "7.9"; Table.f2 (mean_over "B" (fun r -> r.Run.aborts_per_commit)) ];
  Table.add_row t
    [
      "aborts/commit, CLEAR(rw)"; "1.6"; Table.f2 (mean_over "C" (fun r -> r.Run.aborts_per_commit));
    ];
  Table.add_row t
    [
      "exec time vs baseline, CLEAR+PowerTM";
      "-35.0%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "W" (fun r -> r.Run.cycles) -. 1.0));
    ];
  Table.add_row t
    [
      "exec time vs baseline, PowerTM";
      "-12.7%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "P" (fun r -> r.Run.cycles) -. 1.0));
    ];
  Table.add_row t
    [
      "energy vs baseline, CLEAR(rw)";
      "-26.4%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "C" (fun r -> r.Run.energy) -. 1.0));
    ];
  Table.add_row t
    [
      "energy vs baseline, CLEAR+PowerTM";
      "-30.6%";
      Printf.sprintf "%+.1f%%" (100.0 *. (norm_geo "W" (fun r -> r.Run.energy) -. 1.0));
    ];
  t

let storage () =
  let t =
    Table.create ~title:"Storage overhead per core (paper S5: 988.5 bytes)"
      ~columns:[ "Structure"; "Paper"; "Computed" ]
  in
  let b = Clear.Storage.paper in
  let row name paper bytes = Table.add_row t [ name; paper; Printf.sprintf "%.1f B" bytes ] in
  row "indirection bits (180 pregs)" "22.5 B" b.Clear.Storage.indirection_bytes;
  row "ERT (16 entries)" "146 B" b.Clear.Storage.ert_bytes;
  row "ALT (32 entries)" "276 B" b.Clear.Storage.alt_bytes;
  row "CRT (64 entries)" "544 B" b.Clear.Storage.crt_bytes;
  Table.add_separator t;
  row "total" "988.5 B" b.Clear.Storage.total_bytes;
  t

(* Sequential and in-process, so the counters aggregate in one place
   (domains would each own a private engine). *)
let perf_counters opts workloads =
  let total = Simrt.Perfctr.create () in
  List.iter
    (fun (w : Machine.Workload.t) ->
      List.iter
        (fun letter ->
          let cfg = config_of_letter opts letter in
          List.iter
            (fun seed ->
              let eng = Machine.Engine.create (Machine.Config.with_seed cfg seed) w in
              ignore (Machine.Engine.run eng : Machine.Stats.t);
              Simrt.Perfctr.merge_into ~dst:total (Machine.Engine.perfctr eng))
            opts.seeds)
        letters)
    workloads;
  total
