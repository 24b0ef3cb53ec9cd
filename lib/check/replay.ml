type divergence =
  | Store_mismatch of {
      witness : Witness.t;
      index : int;
      expected : (Mem.Addr.t * int) option;
      got : (Mem.Addr.t * int) option;
    }
  | Memory_mismatch of { addr : Mem.Addr.t; replayed : int; simulated : int; differing : int }
  | Replay_error of { witness : Witness.t; message : string }

let pp_entry fmt = function
  | None -> Format.fprintf fmt "(none)"
  | Some (a, v) -> Format.fprintf fmt "M[%d]=%d" a v

let pp_divergence fmt = function
  | Store_mismatch { witness; index; expected; got } ->
      Format.fprintf fmt
        "@[<v2>replay divergence in %a:@ store #%d: simulated %a, replayed %a@]" Witness.pp
        witness index pp_entry expected pp_entry got
  | Memory_mismatch { addr; replayed; simulated; differing } ->
      Format.fprintf fmt
        "final memory differs in %d word(s); first at M[%d]: replayed %d, simulated %d" differing
        addr replayed simulated
  | Replay_error { witness; message } ->
      Format.fprintf fmt "replay of %a faulted: %s" Witness.pp witness message

exception Diverged of divergence

let replay_witness mem (w : Witness.t) =
  (* Run the AR body against the replay memory, logging stores; then check
     the log against the simulated one and apply it. Stores are applied as
     they execute (the body may read back its own writes). *)
  let words = Mem.Store.size mem in
  let rev_log = ref [] in
  let load a =
    if a < 0 || a >= words then
      raise (Isa.Interp.Error (Printf.sprintf "load from out-of-bounds address %d" a));
    Mem.Store.read mem a
  in
  let store a v =
    if a < 0 || a >= words then
      raise (Isa.Interp.Error (Printf.sprintf "store to out-of-bounds address %d" a));
    Mem.Store.write mem a v;
    rev_log := (a, v) :: !rev_log
  in
  (try Isa.Interp.run w.ar ~init_regs:w.init_regs ~load ~store
   with Isa.Interp.Error msg -> raise (Diverged (Replay_error { witness = w; message = msg })));
  let got = List.rev !rev_log in
  let rec compare_logs i expected got =
    match (expected, got) with
    | [], [] -> ()
    | e :: es, g :: gs when e = g -> compare_logs (i + 1) es gs
    | e :: _, g :: _ ->
        raise
          (Diverged (Store_mismatch { witness = w; index = i; expected = Some e; got = Some g }))
    | e :: _, [] ->
        raise (Diverged (Store_mismatch { witness = w; index = i; expected = Some e; got = None }))
    | [], g :: _ ->
        raise (Diverged (Store_mismatch { witness = w; index = i; expected = None; got = Some g }))
  in
  compare_logs 0 w.stores got

(* ------------------------------------------------------------------ *)
(* Windowed cursor: the incremental face of the oracle. The rolling store
   is the only state carried between steps — a replayed prefix is folded
   into it and discarded, so streaming replay holds O(touched words), not
   O(history). *)

type cursor = { mem : Mem.Store.t }

let start ~initial =
  (* The replay store shares every untouched chunk with [initial] — and,
     transitively, with the simulation's [final] image — so the closing
     comparison only scans chunks one of the two sides actually wrote. *)
  { mem = Mem.Store.of_snapshot initial }

let step cur (w : Witness.t) =
  match replay_witness cur.mem w with
  | () -> Ok ()
  | exception Diverged d -> Error d

let apply_driver_writes cur stores = List.iter (fun (a, v) -> Mem.Store.write cur.mem a v) stores

let finish cur ~final =
  let replayed = Mem.Store.snapshot cur.mem in
  if Mem.Store.image_words replayed <> Mem.Store.image_words final then
    Error
      (Memory_mismatch
         {
           addr = 0;
           replayed = Mem.Store.image_words replayed;
           simulated = Mem.Store.image_words final;
           differing = -1;
         })
  else begin
    match Mem.Store.image_diff replayed final with
    | None -> Ok ()
    | Some (addr, replayed, simulated, differing) ->
        Error (Memory_mismatch { addr; replayed; simulated; differing })
  end
