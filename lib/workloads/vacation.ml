module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* Reservation record: [id; free; used; next] — one line per record. *)
let o_id = 0

let o_free = 1

let o_used = 2

let o_next = 3

(* Walk the resource chain for record [r1]; when found, move one unit
   between [free] and [used]. [delta] +1 reserves, -1 cancels. *)
let build_book ~id ~name ~delta ~regions =
  P.build_ar ~id ~name ~regions (fun b ->
      (* r0 = &chain head, r1 = record id, r5 = mailbox *)
      let loop = A.new_label b in
      let found = A.new_label b in
      let missing = A.new_label b in
      let done_ = A.new_label b in
      A.ld b ~dst:8 ~base:(reg 0) ~region:"vac.head" ();
      A.place b loop;
      A.brc b Isa.Instr.Eq (reg 8) (imm 0) missing;
      A.ld b ~dst:9 ~base:(reg 8) ~off:o_id ~region:"vac.rec" ();
      A.brc b Isa.Instr.Eq (reg 9) (reg 1) found;
      A.ld b ~dst:8 ~base:(reg 8) ~off:o_next ~region:"vac.rec" ();
      A.jmp b loop;
      A.place b found;
      A.ld b ~dst:10 ~base:(reg 8) ~off:o_free ~region:"vac.rec" ();
      A.ld b ~dst:11 ~base:(reg 8) ~off:o_used ~region:"vac.rec" ();
      A.sub b ~dst:10 (reg 10) (imm delta);
      A.add b ~dst:11 (reg 11) (imm delta);
      A.st b ~base:(reg 8) ~off:o_free ~src:(reg 10) ~region:"vac.rec" ();
      A.st b ~base:(reg 8) ~off:o_used ~src:(reg 11) ~region:"vac.rec" ();
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b missing;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let make ?(resources = 8) ?(chain = 6) ~name () =
  let layout = Layout.create () in
  let heads = Array.init resources (fun _ -> Layout.alloc_line ~region:"vac.head" layout) in
  let records =
    Array.init (resources * chain) (fun _ -> Layout.alloc_line ~region:"vac.rec" layout)
  in
  let customers = 32 in
  let cust_dir = Layout.alloc_words ~region:"vac.cdir" layout customers in
  let cust_recs = Array.init customers (fun _ -> Layout.alloc_line ~region:"vac.cust" layout) in
  let mail = mailboxes layout ~threads:max_threads in
  let regions = Layout.extents layout in
  let reserve = build_book ~id:0 ~name:"reserve" ~delta:1 ~regions in
  let cancel = build_book ~id:1 ~name:"cancel" ~delta:(-1) ~regions in
  let update_customer =
    dir_update_ar ~id:2 ~name:"update_customer" ~dir_region:"vac.cdir" ~record_region:"vac.cust"
      ~fields:[ (0, `Add_reg 1); (1, `Add_reg 2) ] ~regions ()
  in
  let setup store _rng =
    Array.iteri
      (fun r head ->
        (* Chain the records of resource [r]. *)
        let first = r * chain in
        Mem.Store.write store head records.(first);
        for j = 0 to chain - 1 do
          let node = records.(first + j) in
          Mem.Store.write store (node + o_id) j;
          Mem.Store.write store (node + o_free) 100;
          Mem.Store.write store (node + o_used) 0;
          Mem.Store.write store (node + o_next)
            (if j = chain - 1 then 0 else records.(first + j + 1))
        done)
      heads;
    Array.iteri
      (fun i r ->
        Mem.Store.write store (cust_dir + i) r;
        Mem.Store.fill store r ~len:2 0)
      cust_recs
  in
  let make_driver ~tid ~threads:_ _store rng () =
    let dice = Simrt.Rng.float rng 1.0 in
    let r = Simrt.Rng.zipf rng ~n:resources ~theta:zipf_theta_default in
    let record_id = Simrt.Rng.int rng chain in
    if dice < 0.5 then
      W.op ~lock_id:(r + 1) reserve [ (0, heads.(r)); (1, record_id); (5, mail.(tid)) ]
    else if dice < 0.8 then
      W.op ~lock_id:(r + 1) cancel [ (0, heads.(r)); (1, record_id); (5, mail.(tid)) ]
    else begin
      let cust = Simrt.Rng.int rng customers in
      W.op update_customer [ (0, cust_dir + cust); (1, 1); (2, Simrt.Rng.int rng 100) ]
    end
  in
  {
    W.name = name;
    description = "reservation chains + read-only customer directory";
    ars = [ reserve; cancel; update_customer ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let high = make ~resources:6 ~chain:8 ~name:"vacation-h" ()

let low = make ~resources:24 ~chain:6 ~name:"vacation-l" ()
