module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let make ?(wallets = 64) ?(theta = zipf_theta_heavy) () =
  let layout = Layout.create () in
  (* users directory: one pointer per word, packed (read-only, so sharing a
     line across entries is harmless). *)
  let users = Layout.alloc_words ~region:"users" layout wallets in
  let wallet_lines = Array.init wallets (fun _ -> Layout.alloc_line ~region:"wallet" layout) in
  let transfer =
    P.build_ar ~id:0 ~name:"transfer" ~regions:(Layout.extents layout) (fun b ->
        (* r0 = &users[from], r1 = &users[to], r2 = amount *)
        A.ld b ~dst:8 ~base:(reg 0) ~region:"users" ();
        A.ld b ~dst:9 ~base:(reg 1) ~region:"users" ();
        A.ld b ~dst:10 ~base:(reg 8) ~region:"wallet" ();
        A.sub b ~dst:10 (reg 10) (reg 2);
        A.st b ~base:(reg 8) ~src:(reg 10) ~region:"wallet" ();
        A.ld b ~dst:11 ~base:(reg 9) ~region:"wallet" ();
        A.add b ~dst:11 (reg 11) (reg 2);
        A.st b ~base:(reg 9) ~src:(reg 11) ~region:"wallet" ();
        A.halt b)
  in
  let setup store _rng =
    Array.iteri
      (fun i line ->
        Mem.Store.write store (users + i) line;
        Mem.Store.write store line 10_000)
      wallet_lines
  in
  let make_driver ~tid:_ ~threads:_ _store rng () =
    let from = Simrt.Rng.zipf rng ~n:wallets ~theta in
    let into = (from + 1 + Simrt.Rng.int rng (wallets - 1)) mod wallets in
    W.op transfer [ (0, users + from); (1, users + into); (2, 1 + Simrt.Rng.int rng 50) ]
  in
  {
    W.name = "bitcoin";
    description = "wallet transfers through a read-only user table";
    ars = [ transfer ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
