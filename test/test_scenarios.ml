(* Scenario tests: direct reconstructions of situations the paper discusses —
   the Figure 5 cross-lock deadlock, S-CL deviation, ALT overflow, ERT
   eviction under many static ARs. *)

module Engine = Machine.Engine
module Config = Machine.Config
module Stats = Machine.Stats
module Workload = Machine.Workload
module Store = Mem.Store
module A = Isa.Asm
module I = Isa.Instr
module P = Isa.Program

let base_cfg =
  { Config.clear_rw with Config.cores = 2; ops_per_thread = 120; memory_words = 1 lsl 18 }

(* Paper Figure 5: core 0 locks line b and reads line a; core 1 locks line a
   and reads line b. Without nacks the two S-CL executions would deadlock;
   with nacks the blocked load aborts its AR and the system makes progress. *)
let fig5_workload () =
  let line_a = 64 and line_b = 128 in
  let ptr0 = 192 and ptr1 = 256 in
  (* AR 0: writes a, reads b (through a pointer — the indirection makes the
     region mutable, so its retry runs S-CL and locks only line a). AR 1 is
     the mirror image. Their cross reads reproduce Figure 5's cycle. *)
  let make_ar ~id ~name ~write_addr ~ptr_slot =
    P.build_ar ~id ~name (fun b ->
        A.ld b ~dst:7 ~base:(I.Imm ptr_slot) ~region:"ptr" ();
        A.ld b ~dst:8 ~base:(I.Reg 7) ~region:"x" ();
        A.ld b ~dst:9 ~base:(I.Imm write_addr) ~region:"x" ();
        A.add b ~dst:9 (I.Reg 9) (I.Imm 1);
        A.add b ~dst:9 (I.Reg 9) (I.Reg 8);
        A.st b ~base:(I.Imm write_addr) ~src:(I.Reg 9) ~region:"x" ();
        A.halt b)
  in
  let ar0 = make_ar ~id:0 ~name:"w_a_r_b" ~write_addr:line_a ~ptr_slot:ptr0 in
  let ar1 = make_ar ~id:1 ~name:"w_b_r_a" ~write_addr:line_b ~ptr_slot:ptr1 in
  {
    Workload.name = "fig5";
    description = "cross-locked reads (paper Figure 5)";
    ars = [ ar0; ar1 ];
    memory_words = 512;
    setup =
      (fun store _ ->
        Store.write store line_a 0;
        Store.write store line_b 0;
        Store.write store ptr0 line_b;
        Store.write store ptr1 line_a);
    make_driver = (fun ~tid ~threads:_ _ _ () -> Workload.op (if tid = 0 then ar0 else ar1) []);
  }

let test_fig5_no_deadlock () =
  (* The run must terminate (the engine's livelock guard would raise) and
     commit everything. *)
  let stats = Engine.run_workload base_cfg (fig5_workload ()) in
  Alcotest.(check int) "all commits" 240 (Stats.commits stats)

let test_fig5_values_consistent () =
  (* Both counters only ever increase by 1 + other (reads are of committed
     state), so the final values are deterministic per seed and the run is
     serializable: replaying the committed history sequentially must be
     *possible* — we verify the weaker but still sharp invariant that both
     cells are non-negative and the run is reproducible. *)
  let run () =
    let engine = Engine.create base_cfg (fig5_workload ()) in
    let _ = Engine.run engine in
    (Store.read (Engine.store engine) 64, Store.read (Engine.store engine) 128)
  in
  let a1 = run () and a2 = run () in
  Alcotest.(check (pair int int)) "deterministic" a1 a2

(* S-CL deviation: an AR whose footprint depends on a value another AR
   flips. Discovery classifies it mutable (S-CL); when the selector flips
   mid-stream the S-CL execution deviates from the learned footprint and must
   still be handled correctly. *)
let deviation_workload () =
  let selector = 64 and cell0 = 128 and cell1 = 192 in
  let flip =
    P.build_ar ~id:0 ~name:"flip" (fun b ->
        A.ld b ~dst:8 ~base:(I.Imm selector) ~region:"sel" ();
        A.binop b I.Xor ~dst:8 (I.Reg 8) (I.Imm 1);
        A.st b ~base:(I.Imm selector) ~src:(I.Reg 8) ~region:"sel" ();
        A.halt b)
  in
  let chase =
    P.build_ar ~id:1 ~name:"chase" (fun b ->
        (* address depends on the selector: footprint mutates across runs *)
        A.ld b ~dst:8 ~base:(I.Imm selector) ~region:"sel" ();
        A.mul b ~dst:9 (I.Reg 8) (I.Imm 64);
        A.add b ~dst:9 (I.Reg 9) (I.Imm cell0);
        A.ld b ~dst:10 ~base:(I.Reg 9) ~region:"cell" ();
        A.add b ~dst:10 (I.Reg 10) (I.Imm 1);
        A.st b ~base:(I.Reg 9) ~src:(I.Reg 10) ~region:"cell" ();
        A.halt b)
  in
  ( {
      Workload.name = "deviation";
      description = "footprint flips with a shared selector";
      ars = [ flip; chase ];
      memory_words = 256;
      setup =
        (fun store _ ->
          Store.write store selector 0;
          Store.write store cell0 0;
          Store.write store cell1 0);
      make_driver =
        (fun ~tid ~threads:_ _ rng () ->
          if tid = 0 && Simrt.Rng.chance rng 0.5 then Workload.op flip []
          else Workload.op chase []);
    },
    (cell0, cell1) )

let test_deviation_total_conserved () =
  let w, (cell0, cell1) = deviation_workload () in
  let cfg = { base_cfg with Config.cores = 4 } in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  let store = Engine.store engine in
  let chases = Stats.commits_for_ar stats "chase" in
  Alcotest.(check int) "every chase incremented exactly one cell" chases
    (Store.read store cell0 + Store.read store cell1)

(* ALT overflow: an AR touching more than 32 distinct lines can never be
   converted; with CLEAR enabled it must behave like the baseline (plain
   retries, then fallback) and stay correct. *)
let wide_workload ~lines =
  let base = 64 in
  let ar =
    P.build_ar ~id:0 ~name:"wide" (fun b ->
        for i = 0 to lines - 1 do
          let addr = base + (i * 8) in
          A.ld b ~dst:8 ~base:(I.Imm addr) ~region:"w" ();
          A.add b ~dst:8 (I.Reg 8) (I.Imm 1);
          A.st b ~base:(I.Imm addr) ~src:(I.Reg 8) ~region:"w" ()
        done;
        A.halt b)
  in
  {
    Workload.name = "wide";
    description = "AR wider than the ALT";
    ars = [ ar ];
    memory_words = 64 + (lines * 8) + 64;
    setup = (fun store _ -> Store.fill store 64 ~len:(lines * 8) 0);
    make_driver = (fun ~tid:_ ~threads:_ _ _ () -> Workload.op ar []);
  }

let test_alt_overflow_no_conversion () =
  let w = wide_workload ~lines:40 in
  let cfg = { base_cfg with Config.cores = 4; ops_per_thread = 40 } in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  Alcotest.(check int) "no NS-CL" 0 (Stats.commits_in_mode stats Stats.Nscl);
  Alcotest.(check int) "no S-CL" 0 (Stats.commits_in_mode stats Stats.Scl);
  Alcotest.(check int) "all commit" 160 (Stats.commits stats);
  (* every slot incremented once per committed op *)
  let store = Engine.store engine in
  Alcotest.(check int) "atomicity across 40 lines" 160 (Store.read store 64)

(* ERT pressure: more static ARs than ERT entries forces evictions; CLEAR
   must stay correct (conversions may just happen less often). *)
let many_ars_workload ~ar_count =
  let base = 64 in
  let ars =
    List.init ar_count (fun i ->
        P.build_ar ~id:i ~name:(Printf.sprintf "inc%d" i) (fun b ->
            let addr = base + (i * 8) in
            A.ld b ~dst:8 ~base:(I.Imm addr) ~region:"c" ();
            A.add b ~dst:8 (I.Reg 8) (I.Imm 1);
            A.st b ~base:(I.Imm addr) ~src:(I.Reg 8) ~region:"c" ();
            A.halt b))
  in
  let arr = Array.of_list ars in
  {
    Workload.name = "many-ars";
    description = "more static ARs than ERT entries";
    ars;
    memory_words = 64 + (ar_count * 8) + 64;
    setup = (fun store _ -> Store.fill store 64 ~len:(ar_count * 8) 0);
    make_driver =
      (fun ~tid:_ ~threads:_ _ rng () ->
        Workload.op arr.(Simrt.Rng.int rng ar_count) []);
  }

let test_ert_pressure () =
  let ar_count = 40 (* well beyond the 16-entry ERT *) in
  let w = many_ars_workload ~ar_count in
  let cfg = { base_cfg with Config.cores = 8; ops_per_thread = 100 } in
  let engine = Engine.create cfg w in
  let stats = Engine.run engine in
  Alcotest.(check int) "all commit" 800 (Stats.commits stats);
  let store = Engine.store engine in
  let total = ref 0 in
  for i = 0 to ar_count - 1 do
    total := !total + Store.read store (64 + (i * 8))
  done;
  Alcotest.(check int) "increments conserved" 800 !total

let case name f = Alcotest.test_case name `Quick f

let () =
  Alcotest.run "scenarios"
    [
      ( "figure5",
        [
          case "no deadlock with nacks" test_fig5_no_deadlock;
          case "values deterministic" test_fig5_values_consistent;
        ] );
      ("deviation", [ case "total conserved under S-CL deviation" test_deviation_total_conserved ]);
      ("overflow", [ case "ALT overflow disables conversion" test_alt_overflow_no_conversion ]);
      ("ert", [ case "ERT pressure stays correct" test_ert_pressure ]);
    ]
