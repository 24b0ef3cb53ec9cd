module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let make ?(slots = 48) ?(theta = zipf_theta_default) () =
  let layout = Layout.create () in
  let base = Layout.alloc_lines ~region:"arr" layout slots in
  let stride = Mem.Addr.words_per_line in
  let regions = Layout.extents layout in
  let swap =
    P.build_ar ~id:0 ~name:"swap" ~regions (fun b ->
        (* r0 = &a, r1 = &b *)
        A.ld b ~dst:8 ~base:(reg 0) ~region:"arr" ();
        A.ld b ~dst:9 ~base:(reg 1) ~region:"arr" ();
        A.st b ~base:(reg 0) ~src:(reg 9) ~region:"arr" ();
        A.st b ~base:(reg 1) ~src:(reg 8) ~region:"arr" ();
        A.halt b)
  in
  let add_pair =
    P.build_ar ~id:1 ~name:"add_pair" ~regions (fun b ->
        (* r0 = &a, r1 = &b, r2 = delta: a <- a + b + delta *)
        A.ld b ~dst:8 ~base:(reg 0) ~region:"arr" ();
        A.ld b ~dst:9 ~base:(reg 1) ~region:"arr" ();
        A.add b ~dst:8 (reg 8) (reg 9);
        A.add b ~dst:8 (reg 8) (reg 2);
        A.st b ~base:(reg 0) ~src:(reg 8) ~region:"arr" ();
        A.halt b)
  in
  let setup store rng =
    for i = 0 to slots - 1 do
      Mem.Store.write store (base + (i * stride)) (Simrt.Rng.int rng 1000)
    done
  in
  let make_driver ~tid:_ ~threads:_ _store rng () =
    let i = Simrt.Rng.zipf rng ~n:slots ~theta in
    let j = (i + 1 + Simrt.Rng.int rng (slots - 1)) mod slots in
    let a = base + (i * stride) and b = base + (j * stride) in
    if Simrt.Rng.chance rng 0.7 then W.op swap [ (0, a); (1, b) ]
    else W.op add_pair [ (0, a); (1, b); (2, Simrt.Rng.int rng 100) ]
  in
  {
    W.name = "arrayswap";
    description = "swap/accumulate pairs of array slots (immutable footprints)";
    ars = [ swap; add_pair ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
