module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let make ?(nodes = 96) ?(slots_per_node = 16) () =
  let layout = Layout.create () in
  let degrees = Array.init nodes (fun _ -> Layout.alloc_line ~region:"g.degree" layout) in
  let edges =
    Array.init nodes (fun _ ->
        Layout.alloc_lines ~region:"g.edges" layout (slots_per_node / Mem.Addr.words_per_line))
  in
  let stats_dir = Layout.alloc_words ~region:"g.dir" layout 1 in
  let stats_rec = Layout.alloc_line ~region:"g.stats" layout in
  let regions = Layout.extents layout in
  let inc_degree = fetch_add_ar ~id:0 ~name:"inc_degree" ~region:"g.degree" ~regions () in
  let write_edge =
    P.build_ar ~id:1 ~name:"write_edge" ~regions (fun b ->
        (* r0 = edge slot address, r1 = target node id *)
        A.st b ~base:(reg 0) ~src:(reg 1) ~region:"g.edges" ();
        A.halt b)
  in
  let update_stats =
    dir_update_ar ~id:2 ~name:"update_stats" ~dir_region:"g.dir" ~record_region:"g.stats"
      ~fields:[ (0, `Add_reg 1); (1, `Add_reg 2) ] ~regions ()
  in
  let setup store _rng =
    Array.iter (fun d -> Mem.Store.write store d 0) degrees;
    Mem.Store.write store stats_dir stats_rec;
    Mem.Store.fill store stats_rec ~len:2 0
  in
  let make_driver ~tid ~threads:_ _store rng =
    let cursors = Array.make nodes (tid mod slots_per_node) in
    fun () ->
      let n = Simrt.Rng.int rng nodes in
      let dice = Simrt.Rng.float rng 1.0 in
      if dice < 0.45 then W.op ~lock_id:(n + 1) inc_degree [ (0, degrees.(n)); (1, 1) ]
      else if dice < 0.9 then begin
        let slot = cursors.(n) in
        cursors.(n) <- (slot + 1) mod slots_per_node;
        W.op ~lock_id:(n + 1) write_edge [ (0, edges.(n) + slot); (1, Simrt.Rng.int rng nodes) ]
      end
      else W.op update_stats [ (0, stats_dir); (1, 1); (2, Simrt.Rng.int rng 4) ]
  in
  {
    W.name = "ssca2";
    description = "graph construction: degree counters and edge writes";
    ars = [ inc_degree; write_edge; update_stats ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
