module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let o_key = 0

let o_next = 1

let build_count ~id ~regions =
  P.build_ar ~id ~name:"count_matching" ~regions (fun b ->
      (* r0 = &head, r1 = key, r5 = mailbox *)
      let loop = A.new_label b in
      let skip = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:9 (imm 0);
      A.ld b ~dst:8 ~base:(reg 0) ~region:"list.head" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) done_;
      A.ld b ~dst:10 ~base:(reg 8) ~off:o_key ~region:"list.node" ();
      A.brc b Isa.Instr.Ne (reg 10) (reg 1) skip;
      A.add b ~dst:9 (reg 9) (imm 1);
      A.place b skip;
      A.ld b ~dst:8 ~base:(reg 8) ~off:o_next ~region:"list.node" ();
      A.jmp b loop;
      A.place b done_;
      A.st b ~base:(reg 5) ~src:(reg 9) ~region:"mailbox" ();
      A.halt b)

let build_insert ~id ~regions =
  P.build_ar ~id ~name:"insert" ~regions (fun b ->
      (* Set-style sorted insert (duplicates skipped, so the list stays
         bounded by the key range). r0 = &head, r1 = key, r2 = fresh node.
         r8 = address of the link being examined, r9 = node it points to. *)
      let loop = A.new_label b in
      let link_here = A.new_label b in
      let done_ = A.new_label b in
      A.st b ~base:(reg 2) ~off:o_key ~src:(reg 1) ~region:"list.node" ();
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"list.node" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) link_here;
      A.ld b ~dst:10 ~base:(reg 9) ~off:o_key ~region:"list.node" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) done_;
      A.brc b Isa.Instr.Gt (reg 10) (reg 1) link_here;
      A.add b ~dst:8 (reg 9) (imm o_next);
      A.jmp b loop;
      A.place b link_here;
      A.st b ~base:(reg 2) ~off:o_next ~src:(reg 9) ~region:"list.node" ();
      A.st b ~base:(reg 8) ~src:(reg 2) ~region:"list.node" ();
      A.place b done_;
      A.halt b)

let make ?(initial = 10) ?(key_range = 24) ?(pool_per_thread = 512) () =
  let layout = Layout.create () in
  let head = Layout.alloc_line ~region:"list.head" layout in
  let stats = Layout.alloc_line ~region:"list.stats" layout in
  let mail = mailboxes layout ~threads:max_threads in
  let setup_pool = Array.init initial (fun _ -> Layout.alloc_line ~region:"list.node" layout) in
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"list.node" layout))
  in
  (* The walk sites are tagged "list.node" but their first iteration
     dereferences the head line (r8 starts at &head), so the node extent
     must take the head line in. *)
  Layout.note_span layout ~region:"list.node" ~lo:head ~hi:(head + Mem.Addr.words_per_line - 1);
  let regions = Layout.extents layout in
  let count_matching = build_count ~id:0 ~regions in
  let insert = build_insert ~id:1 ~regions in
  let update_stats = fetch_add_ar ~id:2 ~name:"update_stats" ~region:"list.stats" ~regions () in
  let setup store rng =
    Mem.Store.write store head 0;
    Mem.Store.write store stats 0;
    let keys =
      List.init initial (fun _ -> Simrt.Rng.int rng key_range)
      |> List.sort_uniq compare |> Array.of_list
    in
    (* Build the list back-to-front so it is sorted ascending. *)
    let next = ref 0 in
    for i = Array.length keys - 1 downto 0 do
      let node = setup_pool.(i) in
      Mem.Store.write store (node + o_key) keys.(i);
      Mem.Store.write store (node + o_next) !next;
      next := node
    done;
    Mem.Store.write store head !next
  in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      let dice = Simrt.Rng.float rng 1.0 in
      let key = Simrt.Rng.int rng key_range in
      if dice < 0.35 && !cursor < Array.length pool then begin
        let node = pool.(!cursor) in
        incr cursor;
        W.op insert [ (0, head); (1, key); (2, node) ]
      end
      else if dice < 0.8 then W.op count_matching [ (0, head); (1, key); (5, mail.(tid)) ]
      else W.op update_stats [ (0, stats); (1, 1) ]
  in
  {
    W.name = "sorted-list";
    description = "sorted linked list: count-matching / insert / stats counter";
    ars = [ count_matching; insert; update_stats ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
