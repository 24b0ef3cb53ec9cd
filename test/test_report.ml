(* Tests for the report/table formatting library. *)

module Table = Report.Table

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_basic_rendering () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bee" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "333"; "4" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "title" true (contains s "== demo ==");
  Alcotest.(check bool) "header" true (contains s "| a   | bee |");
  Alcotest.(check bool) "row" true (contains s "| 333 | 4   |")

let test_row_arity_checked () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity mismatch" (Invalid_argument "Table.add_row: 1 cells for 2 columns")
    (fun () -> Table.add_row t [ "only" ])

let test_column_width_adapts () =
  let t = Table.create ~title:"w" ~columns:[ "c" ] in
  Table.add_row t [ "wide-cell-value" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "pads header to cell" true (contains s "| c               |")

let test_formatters () =
  Alcotest.(check string) "f2" "3.14" (Table.f2 3.14159);
  Alcotest.(check string) "f3" "3.142" (Table.f3 3.14159);
  Alcotest.(check string) "pct" "35.4%" (Table.pct 0.354)

let test_rows_preserve_order () =
  let t = Table.create ~title:"o" ~columns:[ "v" ] in
  List.iter (fun v -> Table.add_row t [ v ]) [ "first"; "second"; "third" ];
  let s = Table.to_string t in
  let idx needle =
    let rec go i = if i + String.length needle > String.length s then -1
      else if String.sub s i (String.length needle) = needle then i
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool) "order kept" true (idx "first" < idx "second" && idx "second" < idx "third")

(* ------------------------------------------------------------------ *)
(* CSV *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Report.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Report.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Report.Csv.escape "a\"b")

let test_csv_of_table () =
  let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2,3" ];
  Table.add_separator t;
  Table.add_row t [ "4"; "5" ];
  Alcotest.(check string) "render" "a,b\n1,\"2,3\"\n4,5\n" (Report.Csv.of_table t)

let test_table_accessors () =
  let t = Table.create ~title:"acc" ~columns:[ "c1" ] in
  Table.add_row t [ "v" ];
  Alcotest.(check string) "title" "acc" (Table.title t);
  Alcotest.(check (list string)) "header" [ "c1" ] (Table.header t);
  Alcotest.(check (list (list string))) "rows" [ [ "v" ] ] (Table.rows t)

(* ------------------------------------------------------------------ *)
(* Json reader *)

module J = Report.Json

let roundtrips label text =
  Alcotest.(check string) label text (J.to_string_pretty (J.of_string text))

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("null", J.Null);
        ("flags", J.List [ J.Bool true; J.Bool false ]);
        ("ints", J.List [ J.Int 0; J.Int (-42); J.Int 13728956 ]);
        ("floats", J.List [ J.Float 1.33; J.Float 120.0; J.Float (-0.5); J.Float 1.5e-7; J.Float 2e20 ]);
        ("text", J.Str "quote \" slash \\ tab \t nl \n ctl \001");
        ("empty", J.Obj [ ("list", J.List []); ("obj", J.Obj []) ]);
        ("nested", J.List [ J.Obj [ ("preset", J.Str "B"); ("p99", J.Int 98564) ] ]);
      ]
  in
  roundtrips "pretty" (J.to_string_pretty doc);
  Alcotest.(check string) "compact" (J.to_string doc) (J.to_string (J.of_string (J.to_string doc)))

let test_json_errors () =
  List.iter
    (fun bad ->
      match J.of_string bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception J.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"open"; "1 2"; "{\"a\": 1,}" ]

let test_json_accessors () =
  let j = J.of_string {|{"a": 1, "b": 2.5, "c": "x"}|} in
  Alcotest.(check (option (float 0.))) "int" (Some 1.) (Option.bind (J.member "a" j) J.to_float);
  Alcotest.(check (option (float 0.))) "float" (Some 2.5) (Option.bind (J.member "b" j) J.to_float);
  Alcotest.(check (option (float 0.))) "string" None (Option.bind (J.member "c" j) J.to_float);
  Alcotest.(check bool) "missing" true (J.member "d" j = None)

let () =
  Alcotest.run "report"
    [
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_basic_rendering;
          Alcotest.test_case "arity" `Quick test_row_arity_checked;
          Alcotest.test_case "widths" `Quick test_column_width_adapts;
          Alcotest.test_case "formatters" `Quick test_formatters;
          Alcotest.test_case "row order" `Quick test_rows_preserve_order;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "of_table" `Quick test_csv_of_table;
          Alcotest.test_case "accessors" `Quick test_table_accessors;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "malformed input" `Quick test_json_errors;
          Alcotest.test_case "member and to_float" `Quick test_json_accessors;
        ] );
    ]
