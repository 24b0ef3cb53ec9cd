module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

let fragment_words = 16 (* two cachelines of payload *)

(* Claim the fragment at the head of the (always-full) capture ring and
   checksum its payload: loads the head index, then walks the fragment's
   words accumulating into the mailbox. *)
let build_pop_fragment ~id ~regions =
  P.build_ar ~id ~name:"pop_fragment" ~regions (fun b ->
      (* r0 = &head, r1 = slots base, r3 = capacity, r5 = mailbox *)
      let loop = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"intr.idx" ();
      A.binop b Isa.Instr.Rem ~dst:10 (reg 8) (reg 3);
      A.mul b ~dst:10 (reg 10) (imm fragment_words);
      A.add b ~dst:10 (reg 10) (reg 1) (* fragment base *);
      A.mov b ~dst:11 (imm 0) (* word index *);
      A.mov b ~dst:12 (imm 0) (* checksum *);
      A.place b loop;
      A.add b ~dst:13 (reg 10) (reg 11);
      A.ld b ~dst:14 ~base:(reg 13) ~region:"intr.frag" ();
      A.add b ~dst:12 (reg 12) (reg 14);
      A.add b ~dst:11 (reg 11) (imm 1);
      A.brc b Isa.Instr.Lt (reg 11) (imm fragment_words) loop;
      A.st b ~base:(reg 5) ~src:(reg 12) ~region:"mailbox" ();
      A.add b ~dst:8 (reg 8) (imm 1);
      A.st b ~base:(reg 0) ~src:(reg 8) ~region:"intr.idx" ();
      A.halt b)

let make ?(ring_capacity = 32) ?(flows = 24) () =
  let layout = Layout.create () in
  let head = Layout.alloc_line ~region:"intr.idx" layout in
  let tail = Layout.alloc_line ~region:"intr.idx" layout in
  let slots =
    Layout.alloc_lines ~region:"intr.frag" layout
      (ring_capacity * fragment_words / Mem.Addr.words_per_line)
  in
  let flow_dir = Layout.alloc_words ~region:"intr.fdir" layout flows in
  let flow_recs = Array.init flows (fun _ -> Layout.alloc_line ~region:"intr.flow" layout) in
  let det_dir = Layout.alloc_words ~region:"intr.ddir" layout 1 in
  let det_rec = Layout.alloc_line ~region:"intr.det" layout in
  let mail = mailboxes layout ~threads:max_threads in
  let regions = Layout.extents layout in
  let pop_fragment = build_pop_fragment ~id:0 ~regions in
  let update_flow =
    dir_update_ar ~id:1 ~name:"update_flow" ~dir_region:"intr.fdir" ~record_region:"intr.flow"
      ~fields:[ (0, `Add_reg 1); (1, `Add_reg 2); (2, `Set_reg 3) ] ~regions ()
  in
  let update_detector =
    dir_update_ar ~id:2 ~name:"update_detector" ~dir_region:"intr.ddir" ~record_region:"intr.det"
      ~fields:[ (0, `Add_reg 1) ] ~regions ()
  in
  let setup store rng =
    Mem.Store.write store head 0;
    Mem.Store.write store tail 0;
    for i = 0 to (ring_capacity * fragment_words) - 1 do
      Mem.Store.write store (slots + i) (Simrt.Rng.int rng 256)
    done;
    Array.iteri
      (fun i r ->
        Mem.Store.write store (flow_dir + i) r;
        Mem.Store.fill store r ~len:3 0)
      flow_recs;
    Mem.Store.write store det_dir det_rec;
    Mem.Store.write store det_rec 0
  in
  let make_driver ~tid ~threads:_ _store rng () =
    let dice = Simrt.Rng.float rng 1.0 in
    if dice < 0.45 then
      W.op pop_fragment [ (0, head); (1, slots); (3, ring_capacity); (5, mail.(tid)) ]
    else if dice < 0.85 then begin
      let f = Simrt.Rng.zipf rng ~n:flows ~theta:zipf_theta_default in
      W.op update_flow
        [ (0, flow_dir + f); (1, 1); (2, Simrt.Rng.int rng 64); (3, Simrt.Rng.int rng 2) ]
    end
    else W.op update_detector [ (0, det_dir); (1, 1) ]
  in
  {
    W.name = "intruder";
    description = "fragment ring + flow reassembly directories";
    ars = [ pop_fragment; update_flow; update_detector ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
