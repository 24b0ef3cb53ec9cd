(* Every hard bench gate can fail: each row feeds a gate's predicates a
   passing synthetic record and the same record with one field violating a
   gate, and the failure must name the measured value and the limit. *)

module G = Ci_gate
module J = Report.Json

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let failures gate record = List.filter_map (fun p -> p record) (List.assoc gate G.hard_gates)

let point preset rate p99 =
  J.Obj
    [
      ("preset", J.Str preset);
      ("rate", J.Float rate);
      ("p50", J.Int (p99 / 2));
      ("p99", J.Int p99);
      ("p999", J.Int (p99 + 1));
    ]

let curve =
  List.concat_map
    (fun (preset, scale) ->
      List.map (fun rate -> point preset rate (int_of_float (scale *. rate))) [ 30.; 60.; 120. ])
    [ ("B", 800.); ("C", 200.) ]

(* A passing record per gate, holding just what its predicates read. *)
let passing =
  [
    ("suite", [ ("outputs_identical", J.Bool true) ]);
    ("check", [ ("outputs_identical", J.Bool true) ]);
    ( "sched",
      [
        ("oracle_violations", J.Int 0);
        ("outputs_identical", J.Bool true);
        ("materially_different", J.Int 2);
      ] );
    ("paper", [ ("outputs_identical", J.Bool true) ]);
    ( "streamcheck",
      [
        ("grid_points_identical", J.Int 3);
        ("fault_caught_both_paths", J.Bool true);
        ("open_stats_identical", J.Bool true);
        ("oracle_clean", J.Bool true);
        ("stream_overhead_factor", J.Float 1.19);
        ("events", J.Int 13_728_956);
        ("peak_live_lines", J.Int 967);
        ("retired_entries", J.Int 857_214);
      ] );
    ( "openloop",
      [
        ("outputs_identical", J.Bool true);
        ("oracle_clean", J.Bool true);
        ("curve", J.List curve);
        ( "tail_gate_at_peak",
          J.Obj [ ("load", J.Float 120.); ("baseline_p99", J.Int 96000); ("clear_p99", J.Int 24000) ] );
      ] );
  ]

let row ?what gate key v expect =
  let name = Printf.sprintf "%s: %s %s" gate key (Option.value what ~default:(J.to_string v)) in
  Alcotest.test_case name `Quick (fun () ->
      let fields = List.assoc gate passing in
      Alcotest.(check (list string)) "passing record" [] (failures gate (J.Obj fields));
      let bad = J.Obj (List.map (fun (k, old) -> (k, if k = key then v else old)) fields) in
      match failures gate bad with
      | [] -> Alcotest.fail "violating record passed"
      | msgs ->
          if not (List.exists (fun m -> List.for_all (contains m) expect) msgs) then
            Alcotest.failf "no failure names [%s] in: %s" (String.concat "; " expect)
              (String.concat " | " msgs))

let drop_rate rate = J.List (List.filter (fun p -> J.member "rate" p <> Some (J.Float rate)) curve)

let rows =
  [
    row "suite" "outputs_identical" (J.Bool false) [ "outputs_identical is false"; "limit true" ];
    row "check" "outputs_identical" (J.Bool false) [ "outputs_identical is false"; "limit true" ];
    row "sched" "oracle_violations" (J.Int 1) [ "oracle_violations is 1"; "limit <= 0" ];
    row "sched" "outputs_identical" (J.Bool false) [ "outputs_identical is false"; "limit true" ];
    row "sched" "materially_different" (J.Int 1) [ "materially_different is 1"; "limit >= 2" ];
    row "paper" "outputs_identical" (J.Bool false) [ "outputs_identical is false"; "limit true" ];
    row "streamcheck" "grid_points_identical" (J.Int 2) [ "grid_points_identical is 2"; "limit >= 3" ];
    row "streamcheck" "fault_caught_both_paths" (J.Bool false)
      [ "fault_caught_both_paths is false"; "limit true" ];
    row "streamcheck" "open_stats_identical" (J.Bool false)
      [ "open_stats_identical is false"; "limit true" ];
    row "streamcheck" "oracle_clean" (J.Bool false) [ "oracle_clean is false"; "limit true" ];
    row "streamcheck" "stream_overhead_factor" (J.Float 1.52)
      [ "stream_overhead_factor is 1.52"; "limit <= 1.4" ];
    row "streamcheck" "events" (J.Int 9_999_999) [ "events is 9999999"; "limit >= 10000000" ];
    row "streamcheck" "peak_live_lines" (J.Int 0) [ "peak_live_lines is 0"; "limit >= 1" ];
    row "streamcheck" "peak_live_lines" (J.Int 4097) [ "peak_live_lines is 4097"; "limit <= 4096" ];
    row "streamcheck" "retired_entries" (J.Int 0) [ "retired_entries is 0"; "limit >= 1" ];
    row "openloop" "outputs_identical" (J.Bool false) [ "outputs_identical is false"; "limit true" ];
    row "openloop" "oracle_clean" (J.Bool false) [ "oracle_clean is false"; "limit true" ];
    row ~what:"without load 60" "openloop" "curve" (drop_rate 60.)
      [ "preset B has 2 load point(s)"; "limit >= 3" ];
    row ~what:"of preset B only" "openloop" "curve"
      (J.List (List.filter (fun p -> J.member "preset" p = Some (J.Str "B")) curve))
      [ "curve has 1 preset(s)"; "limit >= 2" ];
    row ~what:"without p999" "openloop" "curve"
      (J.List
         (point "B" 240. 1
         :: List.map (function J.Obj f -> J.Obj (List.remove_assoc "p999" f) | p -> p) curve))
      [ "6 point(s) lack p50/p99/p999"; "limit 0" ];
    row ~what:"B p99 = C p99" "openloop" "tail_gate_at_peak"
      (J.Obj [ ("load", J.Float 120.); ("baseline_p99", J.Int 24000); ("clear_p99", J.Int 24000) ])
      [ "at load 120 baseline p99 is 24000"; "limit > CLEAR p99 24000" ];
  ]

(* The committed records were written by passing gates with
   Json.to_string_pretty, so each passes its gates and reads back to its own
   text. *)
let test_committed_records () =
  List.iter
    (fun (gate, _) ->
      let path = Filename.concat ".." ("BENCH_" ^ gate ^ ".json") in
      let text = String.trim (In_channel.with_open_bin path In_channel.input_all) in
      let record = J.of_string text in
      Alcotest.(check string) (path ^ " round trip") text (J.to_string_pretty record);
      Alcotest.(check (list string)) path [] (failures gate record))
    G.hard_gates

let test_drift () =
  let warn ~limit_pct prev now =
    G.drift_warnings ~gate:"g" ~limit_pct ~previous:[ ("m", prev) ] [ ("m", now); ("new", 1.) ]
  in
  Alcotest.(check (list string)) "over 10%" [ "::warning ::g m drifted +11.0% (100 -> 111)" ]
    (warn ~limit_pct:10. 100. 111.);
  Alcotest.(check (list string)) "under 10%" [] (warn ~limit_pct:10. 100. 91.);
  Alcotest.(check (list string)) "within 25%" [] (warn ~limit_pct:25. 100. 124.);
  Alcotest.(check (list string)) "down over 25%"
    [ "::warning ::g m drifted -37.6% (49231 -> 30724)" ]
    (warn ~limit_pct:25. 49231. 30724.);
  Alcotest.(check (list string)) "zero baseline" [] (warn ~limit_pct:10. 0. 5.)

let () =
  Alcotest.run "gate"
    [
      ("hard gates", rows);
      ( "records",
        [
          Alcotest.test_case "committed records pass" `Quick test_committed_records;
          Alcotest.test_case "drift warning rule" `Quick test_drift;
        ] );
    ]
