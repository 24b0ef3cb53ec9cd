module A = Isa.Asm
module P = Isa.Program
module W = Machine.Workload
open Common

(* All three ARs iterate the path buffer: r0 = path buffer base, r1 = path
   length, r2 = grid base, r3 = owner id, r5 = mailbox. r8 = index,
   r9 = &path[i], r10 = cell, r11 = &grid[cell], r12 = grid value. *)

let path_prologue b =
  A.mov b ~dst:8 (imm 0)

let load_cell b =
  A.add b ~dst:9 (reg 0) (reg 8);
  A.ld b ~dst:10 ~base:(reg 9) ~region:"lab.path" ();
  A.add b ~dst:11 (reg 2) (reg 10)

let build_claim ~id ~regions =
  P.build_ar ~id ~name:"claim_path" ~regions (fun b ->
      let check = A.new_label b in
      let write = A.new_label b in
      let write_loop = A.new_label b in
      let fail = A.new_label b in
      let done_ = A.new_label b in
      (* Pass 1: all cells must be free. *)
      path_prologue b;
      A.place b check;
      load_cell b;
      A.ld b ~dst:12 ~base:(reg 11) ~region:"lab.grid" ();
      A.brc b Isa.Instr.Ne (reg 12) (imm 0) fail;
      A.add b ~dst:8 (reg 8) (imm 1);
      A.brc b Isa.Instr.Lt (reg 8) (reg 1) check;
      (* Pass 2: claim them. *)
      A.place b write;
      A.mov b ~dst:8 (imm 0);
      A.place b write_loop;
      load_cell b;
      A.st b ~base:(reg 11) ~src:(reg 3) ~region:"lab.grid" ();
      A.add b ~dst:8 (reg 8) (imm 1);
      A.brc b Isa.Instr.Lt (reg 8) (reg 1) write_loop;
      A.st b ~base:(reg 5) ~src:(imm 1) ~region:"mailbox" ();
      A.jmp b done_;
      A.place b fail;
      A.st b ~base:(reg 5) ~src:(imm 0) ~region:"mailbox" ();
      A.place b done_;
      A.halt b)

let build_erase ~id ~regions =
  P.build_ar ~id ~name:"erase_path" ~regions (fun b ->
      let loop = A.new_label b in
      let skip = A.new_label b in
      path_prologue b;
      A.place b loop;
      load_cell b;
      A.ld b ~dst:12 ~base:(reg 11) ~region:"lab.grid" ();
      A.brc b Isa.Instr.Ne (reg 12) (reg 3) skip (* only erase our own claims *);
      A.st b ~base:(reg 11) ~src:(imm 0) ~region:"lab.grid" ();
      A.place b skip;
      A.add b ~dst:8 (reg 8) (imm 1);
      A.brc b Isa.Instr.Lt (reg 8) (reg 1) loop;
      A.halt b)

let build_validate ~id ~regions =
  P.build_ar ~id ~name:"validate_path" ~regions (fun b ->
      let loop = A.new_label b in
      let skip = A.new_label b in
      path_prologue b;
      A.mov b ~dst:13 (imm 0) (* owned-cell count *);
      A.place b loop;
      load_cell b;
      A.ld b ~dst:12 ~base:(reg 11) ~region:"lab.grid" ();
      A.brc b Isa.Instr.Ne (reg 12) (reg 3) skip;
      A.add b ~dst:13 (reg 13) (imm 1);
      A.place b skip;
      A.add b ~dst:8 (reg 8) (imm 1);
      A.brc b Isa.Instr.Lt (reg 8) (reg 1) loop;
      A.st b ~base:(reg 5) ~src:(reg 13) ~region:"mailbox" ();
      A.halt b)

let make ?(grid = 24) ?(path_len = 18) () =
  let layout = Layout.create () in
  let cells = grid * grid in
  let grid_base =
    Layout.alloc_lines ~region:"lab.grid" layout
      ((cells + Mem.Addr.words_per_line - 1) / Mem.Addr.words_per_line)
  in
  let path_bufs =
    Array.init max_threads (fun _ ->
        Layout.alloc_lines ~region:"lab.path" layout
          ((path_len + Mem.Addr.words_per_line - 1) / Mem.Addr.words_per_line))
  in
  let mail = mailboxes layout ~threads:max_threads in
  let regions = Layout.extents layout in
  let claim = build_claim ~id:0 ~regions in
  let erase = build_erase ~id:1 ~regions in
  let validate = build_validate ~id:2 ~regions in
  let setup store _rng = Mem.Store.fill store grid_base ~len:cells 0 in
  let make_driver ~tid ~threads:_ store rng =
    let buf = path_bufs.(tid) in
    let owner = tid + 1 in
    let plan_path () =
      (* Random walk with wraparound; cells may repeat lines, not cells. *)
      let x = ref (Simrt.Rng.int rng grid) and y = ref (Simrt.Rng.int rng grid) in
      let seen = Hashtbl.create 32 in
      let count = ref 0 in
      while !count < path_len do
        let cell = (!y * grid) + !x in
        if not (Hashtbl.mem seen cell) then begin
          Hashtbl.add seen cell ();
          Mem.Store.write store (buf + !count) cell;
          incr count
        end;
        if Simrt.Rng.bool rng then x := (!x + 1) mod grid else y := (!y + 1) mod grid
      done
    in
    fun () ->
      let dice = Simrt.Rng.float rng 1.0 in
      if dice < 0.5 then begin
        plan_path ();
        W.op ~extra_think:(path_len * 20) claim
          [ (0, buf); (1, path_len); (2, grid_base); (3, owner); (5, mail.(tid)) ]
      end
      else if dice < 0.8 then
        W.op erase [ (0, buf); (1, path_len); (2, grid_base); (3, owner) ]
      else W.op validate [ (0, buf); (1, path_len); (2, grid_base); (3, owner); (5, mail.(tid)) ]
  in
  {
    W.name = "labyrinth";
    description = "atomic path claiming over a shared grid";
    ars = [ claim; erase; validate ];
    memory_words = Layout.used_words layout;
    setup;
    make_driver;
  }

let workload = make ()
