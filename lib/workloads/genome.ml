module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* Hash-set node: [key; next]. Segment node: [id; link; weight]. *)
let o_key = 0

let o_next = 1

let s_id = 0

let s_link = 1

let s_weight = 2

let build_hs_insert ~id ~regions =
  P.build_ar ~id ~name:"hashset_insert" ~regions (fun b ->
      (* r0 = &bucket, r1 = key, r2 = fresh node, r5 = mailbox (1 if new) *)
      let loop = A.new_label b in
      let dup = A.new_label b in
      let link = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~region:"gen.hs" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) link;
      A.ld b ~dst:10 ~base:(reg 9) ~off:o_key ~region:"gen.hs" ();
      A.brc b Isa.Instr.Eq (reg 10) (reg 1) dup;
      A.add b ~dst:8 (reg 9) (imm o_next);
      A.jmp b loop;
      A.place b link;
      A.st b ~base:(reg 2) ~off:o_key ~src:(reg 1) ~region:"gen.hs" ();
      A.st b ~base:(reg 2) ~off:o_next ~src:(imm 0) ~region:"gen.hs" ();
      A.st b ~base:(reg 8) ~src:(reg 2) ~region:"gen.hs" ();
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b dup;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let build_hs_contains ~id ~regions =
  P.build_ar ~id ~name:"hashset_contains" ~regions (fun b ->
      (* r0 = &bucket, r1 = key, r5 = mailbox *)
      let loop = A.new_label b in
      let hit = A.new_label b in
      let miss = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"gen.hs" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) miss;
      A.ld b ~dst:9 ~base:(reg 8) ~off:o_key ~region:"gen.hs" ();
      A.brc b Isa.Instr.Eq (reg 9) (reg 1) hit;
      A.ld b ~dst:8 ~base:(reg 8) ~off:o_next ~region:"gen.hs" ();
      A.jmp b loop;
      A.place b hit;
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b miss;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

(* Append a segment to the chain starting at the given segment: walk the
   [link] pointers to the end and attach. *)
let build_chain_append ~id ~regions =
  P.build_ar ~id ~name:"chain_append" ~regions (fun b ->
      (* r0 = chain head segment, r2 = segment to attach *)
      let loop = A.new_label b in
      let attach = A.new_label b in
      let self = A.new_label b in
      A.brc b Isa.Instr.Eq (reg 0) (reg 2) self;
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~off:s_link ~region:"gen.seg" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) attach;
      A.brc b Isa.Instr.Eq (reg 9) (reg 2) self (* already linked *);
      A.mov b ~dst:8 (reg 9);
      A.jmp b loop;
      A.place b attach;
      A.st b ~base:(reg 8) ~off:s_link ~src:(reg 2) ~region:"gen.seg" ();
      A.place b self;
      A.halt b)

(* Sum the weights along a segment chain. *)
let build_chain_weight ~id ~regions =
  P.build_ar ~id ~name:"chain_weight" ~regions (fun b ->
      (* r0 = chain head segment, r5 = mailbox *)
      let loop = A.new_label b in
      let done_ = A.new_label b in
      A.mov b ~dst:8 (reg 0);
      A.mov b ~dst:9 (imm 0);
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) done_;
      A.ld b ~dst:10 ~base:(reg 8) ~off:s_weight ~region:"gen.seg" ();
      A.add b ~dst:9 (reg 9) (reg 10);
      A.ld b ~dst:8 ~base:(reg 8) ~off:s_link ~region:"gen.seg" ();
      A.jmp b loop;
      A.place b done_;
      A.st b ~base:(reg 5) ~src:(reg 9) ~region:"mailbox" ();
      A.halt b)

(* Bump the weight of the segment at the end of a chain. *)
let build_bump_tail ~id ~regions =
  P.build_ar ~id ~name:"bump_tail_weight" ~regions (fun b ->
      (* r0 = chain head segment, r1 = delta *)
      let loop = A.new_label b in
      let found = A.new_label b in
      A.mov b ~dst:8 (reg 0);
      A.place b loop;
      A.ld b ~dst:9 ~base:(reg 8) ~off:s_link ~region:"gen.seg" ();
      A.brc b Isa.Instr.Eq (reg 9) (imm 0) found;
      A.mov b ~dst:8 (reg 9);
      A.jmp b loop;
      A.place b found;
      A.ld b ~dst:10 ~base:(reg 8) ~off:s_weight ~region:"gen.seg" ();
      A.add b ~dst:10 (reg 10) (reg 1);
      A.st b ~base:(reg 8) ~off:s_weight ~src:(reg 10) ~region:"gen.seg" ();
      A.halt b)

let make ?(buckets = 16) ?(segment_range = 192) ?(pool_per_thread = 512) () =
  let layout = Layout.create () in
  let hs_heads = Array.init buckets (fun _ -> Layout.alloc_line ~region:"gen.hs" layout) in
  let chains = 24 in
  let chain_heads = Array.init chains (fun _ -> Layout.alloc_line ~region:"gen.seg" layout) in
  let mail = mailboxes layout ~threads:max_threads in
  let pools =
    Array.init max_threads (fun _ -> Array.init pool_per_thread (fun _ -> Layout.alloc_line layout))
  in
  (* Pool nodes serve as both hash-set nodes and chain segments (the driver
     draws both from the same per-thread pool), so both walk regions must
     span the whole pool range. *)
  let pool_lo = pools.(0).(0) in
  let pool_hi = pools.(max_threads - 1).(pool_per_thread - 1) + Mem.Addr.words_per_line - 1 in
  Layout.note_span layout ~region:"gen.hs" ~lo:pool_lo ~hi:pool_hi;
  Layout.note_span layout ~region:"gen.seg" ~lo:pool_lo ~hi:pool_hi;
  let regions = Layout.extents layout in
  let hs_insert = build_hs_insert ~id:0 ~regions in
  let hs_contains = build_hs_contains ~id:1 ~regions in
  let chain_append = build_chain_append ~id:2 ~regions in
  let chain_weight = build_chain_weight ~id:3 ~regions in
  let bump_tail = build_bump_tail ~id:4 ~regions in
  let setup store rng =
    Array.iter (fun h -> Mem.Store.write store h 0) hs_heads;
    Array.iter
      (fun h ->
        Mem.Store.write store (h + s_id) (Simrt.Rng.int rng segment_range);
        Mem.Store.write store (h + s_link) 0;
        Mem.Store.write store (h + s_weight) 1)
      chain_heads
  in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    let fresh_segment () =
      let node = pool.(!cursor) in
      incr cursor;
      node
    in
    fun () ->
      let dice = Simrt.Rng.float rng 1.0 in
      let key = Simrt.Rng.int rng segment_range in
      let bucket = hs_heads.(key mod buckets) in
      let chain = chain_heads.(Simrt.Rng.int rng chains) in
      if dice < 0.3 && !cursor < Array.length pool then
        W.op hs_insert [ (0, bucket); (1, key); (2, fresh_segment ()); (5, mail.(tid)) ]
      else if dice < 0.55 then W.op hs_contains [ (0, bucket); (1, key); (5, mail.(tid)) ]
      else if dice < 0.63 && !cursor < Array.length pool then
        W.op chain_append [ (0, chain); (2, fresh_segment ()) ]
      else if dice < 0.82 then W.op chain_weight [ (0, chain); (5, mail.(tid)) ]
      else W.op bump_tail [ (0, chain); (1, 1) ]
  in
  {
    W.name = "genome";
    description = "segment dedup hash set + assembly chains";
    ars = [ hs_insert; hs_contains; chain_append; chain_weight; bump_tail ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
