module S = Machine.Stats
module J = Report.Json

let seeds = [ 3; 5; 7 ]

let material_delta = 0.05

type cell = {
  config : string;
  cycles : float;
  aborts_per_commit : float;
  one_retry : float;
  n_retry : float;
  fallback : float;
  numa_adder_cycles : float;
  material : bool;
}

type t = {
  workload : string;
  cores : int;
  ops_per_thread : int;
  checked : bool;
  runs : ((string * string * int) * Machine.Stats.t) list;
  scenarios : (string * cell list) list;
  materially_different : int;
}

let run ~jobs ~check ~config (w : Machine.Workload.t) =
  let tasks =
    List.concat_map
      (fun (sname, prof) ->
        List.concat_map
          (fun letter ->
            let cfg = Machine.Config.with_sched (config letter) prof in
            List.map (fun seed -> ((sname, letter, seed), { Run.cfg; workload = w; seed })) seeds)
          Experiments.letters)
      Sched.Scenarios.all
  in
  let stats = Simrt.Pool.parallel_map ~jobs (Run.runner ~check) (List.map snd tasks) in
  let runs = List.map2 (fun (key, _) st -> (key, st)) tasks stats in
  (* Aggregate seeds per (scenario, config). *)
  let agg sname letter =
    let per_seed =
      List.filter_map (fun ((s, l, _), st) -> if s = sname && l = letter then Some st else None) runs
    in
    let over f = Simrt.Summary.mean (List.map f per_seed) in
    let share pick = over (fun st -> pick (S.retry_breakdown st)) in
    {
      config = letter;
      cycles = over (fun st -> float_of_int (S.total_cycles st));
      aborts_per_commit = over S.aborts_per_commit;
      one_retry = share (fun (a, _, _) -> a);
      n_retry = share (fun (_, b, _) -> b);
      fallback = share (fun (_, _, c) -> c);
      numa_adder_cycles =
        over (fun st -> float_of_int (Simrt.Counter.get (S.counters st) "numa_adder_cycles"));
      material = false;
    }
  in
  let baseline = List.map (fun l -> (l, agg "symmetric" l)) Experiments.letters in
  let scenarios =
    List.map
      (fun (sname, _) ->
        ( sname,
          List.map
            (fun l ->
              let c = agg sname l and b = List.assoc l baseline in
              let material =
                sname <> "symmetric"
                && (Float.abs (c.one_retry -. b.one_retry) >= material_delta
                   || Float.abs (c.fallback -. b.fallback) >= material_delta)
              in
              { c with material })
            Experiments.letters ))
      Sched.Scenarios.all
  in
  let cfg = config "B" in
  {
    workload = w.Machine.Workload.name;
    cores = cfg.Machine.Config.cores;
    ops_per_thread = cfg.Machine.Config.ops_per_thread;
    checked = check;
    runs;
    scenarios;
    materially_different =
      List.length
        (List.filter
           (fun (sname, cells) -> sname <> "symmetric" && List.exists (fun c -> c.material) cells)
           scenarios);
  }

let runs t = t.runs

let materially_different t = t.materially_different

let cell_json c =
  J.Obj
    [
      ("config", J.Str c.config);
      ("cycles", J.Float c.cycles);
      ("aborts_per_commit", J.Float c.aborts_per_commit);
      ("one_retry", J.Float c.one_retry);
      ("n_retry", J.Float c.n_retry);
      ("fallback", J.Float c.fallback);
      ("numa_adder_cycles", J.Float c.numa_adder_cycles);
      ("materially_different", J.Bool c.material);
    ]

let to_json t =
  J.Obj
    [
      ("workload", J.Str t.workload);
      ("cores", J.Int t.cores);
      ("ops_per_thread", J.Int t.ops_per_thread);
      ("seeds", J.List (List.map (fun s -> J.Int s) seeds));
      ("checked", J.Bool t.checked);
      ("material_delta", J.Float material_delta);
      ("materially_different", J.Int t.materially_different);
      ( "scenarios",
        J.List
          (List.map
             (fun (name, cells) ->
               J.Obj [ ("name", J.Str name); ("configs", J.List (List.map cell_json cells)) ])
             t.scenarios) );
    ]

let table t =
  let module T = Report.Table in
  let tbl =
    T.create
      ~title:
        (Printf.sprintf "Scheduler scenarios: %s, %d cores, %d ops/thread (mean of %d seeds)"
           t.workload t.cores t.ops_per_thread (List.length seeds))
      ~columns:
        [ "Scenario"; "Cfg"; "cycles"; "ab/commit"; "1-retry"; "n-retry"; "fallback"; "numa-cyc";
          "shift" ]
  in
  List.iter
    (fun (name, cells) ->
      List.iter
        (fun c ->
          T.add_row tbl
            [ name; c.config; Printf.sprintf "%.0f" c.cycles; T.f2 c.aborts_per_commit;
              T.pct c.one_retry; T.pct c.n_retry; T.pct c.fallback;
              Printf.sprintf "%.0f" c.numa_adder_cycles; (if c.material then "*" else "") ])
        cells;
      T.add_separator tbl)
    t.scenarios;
  tbl
