module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let o_val = 0

let o_next = 1

let build_push ~id ~regions =
  P.build_ar ~id ~name:"push" ~regions (fun b ->
      (* r0 = &top, r1 = value, r2 = fresh node *)
      A.st b ~base:(reg 2) ~off:o_val ~src:(reg 1) ~region:"st.node" ();
      A.ld b ~dst:8 ~base:(reg 0) ~region:"st.top" ();
      A.st b ~base:(reg 2) ~off:o_next ~src:(reg 8) ~region:"st.node" ();
      A.st b ~base:(reg 0) ~src:(reg 2) ~region:"st.top" ();
      A.halt b)

let build_pop ~id ~regions =
  P.build_ar ~id ~name:"pop" ~regions (fun b ->
      (* r0 = &top, r5 = mailbox *)
      let empty = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"st.top" ();
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) empty;
      A.ld b ~dst:9 ~base:(reg 8) ~off:o_next ~region:"st.node" ();
      A.ld b ~dst:10 ~base:(reg 8) ~off:o_val ~region:"st.node" ();
      A.st b ~base:(reg 0) ~src:(reg 9) ~region:"st.top" ();
      A.st b ~base:(reg 5) ~src:(reg 10) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b empty;
      A.st b ~base:(reg 5) ~src:(imm (-1)) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let make ?(pool_per_thread = 512) () =
  let layout = Layout.create () in
  let top = Layout.alloc_line ~region:"st.top" layout in
  let mail = mailboxes layout ~threads:max_threads in
  let pools =
    Array.init max_threads (fun _ ->
        Array.init pool_per_thread (fun _ -> Layout.alloc_line ~region:"st.node" layout))
  in
  let regions = Layout.extents layout in
  let push = build_push ~id:0 ~regions in
  let pop = build_pop ~id:1 ~regions in
  let setup store _rng = Mem.Store.write store top 0 in
  let make_driver ~tid ~threads:_ _store rng =
    let pool = pools.(tid) in
    let cursor = ref 0 in
    fun () ->
      if Simrt.Rng.bool rng && !cursor < Array.length pool then begin
        let node = pool.(!cursor) in
        incr cursor;
        W.op push [ (0, top); (1, Simrt.Rng.int rng 1000); (2, node) ]
      end
      else W.op pop [ (0, top); (5, mail.(tid)) ]
  in
  {
    W.name = "stack";
    description = "Treiber stack: push / pop";
    ars = [ push; pop ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
