module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let make ?(objects = 2) () =
  let layout = Layout.create () in
  let bases = Array.init objects (fun _ -> Layout.alloc_line ~region:"mwobj" layout) in
  let regions = Layout.extents layout in
  let update =
    P.build_ar ~id:0 ~name:"mw_update" ~regions (fun b ->
        (* r0 = object base; r1..r4 = deltas for the four fields *)
        List.iter
          (fun k ->
            A.ld b ~dst:8 ~base:(reg 0) ~off:k ~region:"mwobj" ();
            A.add b ~dst:8 (reg 8) (reg (1 + k));
            A.st b ~base:(reg 0) ~off:k ~src:(reg 8) ~region:"mwobj" ())
          [ 0; 1; 2; 3 ];
        A.halt b)
  in
  let setup store _rng = Array.iter (fun base -> Mem.Store.fill store base ~len:4 0) bases in
  let make_driver ~tid:_ ~threads:_ _store rng () =
    let base = bases.(Simrt.Rng.int rng objects) in
    W.op update
      [ (0, base); (1, 1); (2, Simrt.Rng.int rng 3); (3, 1); (4, Simrt.Rng.int rng 2) ]
  in
  {
    W.name = "mwobject";
    description = "four additions to four words of one cacheline (MCAS-style)";
    ars = [ update ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
