(* Per-line state lives in two line-indexed tables of pages, one int per
   line each: the coherence state (see [owner_of] / [sharers_of]) and the
   lock holder plus one. Untouched lines read 0 — uncached and unlocked —
   from the shared [empty_page], which is never written: a page is
   allocated on its first non-zero write and the page table grows by
   doubling to cover the highest line written, so a simulation pays only
   for the pages its footprint lands on. Lock pages appear only where
   cacheline locks are taken. *)

let page_shift = 8

let page_lines = 1 lsl page_shift

let page_mask = page_lines - 1

let empty_page = Array.make page_lines 0

type table = { mutable pages : int array array }

let table () = { pages = Array.make 16 empty_page }

let get tbl line =
  let p = line asr page_shift in
  if p >= 0 && p < Array.length tbl.pages then (Array.unsafe_get tbl.pages p).(line land page_mask)
  else 0

let set tbl line v =
  let p = line asr page_shift in
  if p < 0 then invalid_arg "Directory: negative line";
  if p >= Array.length tbl.pages then begin
    if v <> 0 then begin
      let n = ref (2 * Array.length tbl.pages) in
      while p >= !n do
        n := 2 * !n
      done;
      let grown = Array.make !n empty_page in
      Array.blit tbl.pages 0 grown 0 (Array.length tbl.pages);
      tbl.pages <- grown;
      let pg = Array.make page_lines 0 in
      pg.(line land page_mask) <- v;
      grown.(p) <- pg
    end
  end
  else begin
    let pg = tbl.pages.(p) in
    if pg != empty_page then pg.(line land page_mask) <- v
    else if v <> 0 then begin
      let pg = Array.make page_lines 0 in
      pg.(line land page_mask) <- v;
      tbl.pages.(p) <- pg
    end
  end

(* Coherence state in one int. A line has either an exclusive owner (M/E)
   or a set of sharers, never both, so: 0 = uncached, > 0 = sharer mask,
   < 0 = [lnot owner]. Sharer masks fit because cores <= 62. *)
let owner_of s = if s < 0 then lnot s else -1

let sharers_of s = if s > 0 then s else 0

(* Sharer masks are native ints with one bit per core. *)
let max_cores = 62

type t = {
  cores : int;
  state : table;
  holder : table; (* lock holder + 1; 0 = unlocked *)
  locked : int array array; (* per core: the lines it holds locked, unordered *)
  nlocked : int array; (* per core: live prefix of [locked] *)
}

type coherence = { msgs : int; from_remote : bool }

let create ~cores =
  if cores <= 0 || cores > max_cores then invalid_arg "Directory.create: cores must be in [1, 62]";
  {
    cores;
    state = table ();
    holder = table ();
    locked = Array.init cores (fun _ -> Array.make 8 0);
    nlocked = Array.make cores 0;
  }

let cores t = t.cores

let bit core = 1 lsl core

(* The directory's coherence outcomes are a handful of constants, shared
   so the hot path allocates nothing. *)
let local = { msgs = 0; from_remote = false }

let fetched = { msgs = 2; from_remote = false }

let forwarded = { msgs = 3; from_remote = true }

let read t ~core line =
  let s = get t.state line in
  let owner = owner_of s and sharers = sharers_of s in
  if owner = core then local
  else if sharers land bit core <> 0 then local
  else if owner >= 0 then begin
    (* Downgrade the remote owner to a sharer; data forwarded core-to-core. *)
    set t.state line (bit owner lor bit core);
    forwarded
  end
  else begin
    set t.state line (sharers lor bit core);
    fetched
  end

let exclusive_hit = (local, [])

let exclusive_fetch = (fetched, [])

let write t ~core line =
  let s = get t.state line in
  let owner = owner_of s and sharers = sharers_of s in
  if owner = core && sharers = 0 then exclusive_hit
  else begin
    set t.state line (lnot core);
    if (owner < 0 || owner = core) && sharers land lnot (bit core) = 0 then exclusive_fetch
    else begin
      let from_remote = owner >= 0 && owner <> core in
      let invalidated = ref (if from_remote then [ owner ] else []) in
      for c = t.cores - 1 downto 0 do
        if c <> core && sharers land bit c <> 0 then invalidated := c :: !invalidated
      done;
      ({ msgs = 2 + List.length !invalidated; from_remote }, !invalidated)
    end
  end

let drop_core t ~core line =
  let s = get t.state line in
  if owner_of s = core then set t.state line 0
  else if sharers_of s land bit core <> 0 then set t.state line (s land lnot (bit core))

let owner t line =
  let o = owner_of (get t.state line) in
  if o >= 0 then Some o else None

let is_sharer t ~core line =
  let s = get t.state line in
  owner_of s = core || sharers_of s land bit core <> 0

let lock_holder t line = get t.holder line - 1

let locked_by t line =
  let h = lock_holder t line in
  if h >= 0 then Some h else None

let lock t ~core line =
  let holder = lock_holder t line in
  if holder = core then `Acquired []
  else if holder >= 0 then `Held_by holder
  else begin
    (* Locking implies exclusivity: steal ownership, drop other sharers. *)
    let _coh, invalidated = write t ~core line in
    set t.holder line (core + 1);
    let n = t.nlocked.(core) in
    if n = Array.length t.locked.(core) then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit t.locked.(core) 0 grown 0 n;
      t.locked.(core) <- grown
    end;
    t.locked.(core).(n) <- line;
    t.nlocked.(core) <- n + 1;
    `Acquired invalidated
  end

let unlock t ~core line =
  if lock_holder t line = core then begin
    set t.holder line 0;
    (* Swap-remove from the core's (unordered) lock list. *)
    let held = t.locked.(core) and n = t.nlocked.(core) - 1 in
    let i = ref 0 in
    while held.(!i) <> line do
      incr i
    done;
    held.(!i) <- held.(n);
    t.nlocked.(core) <- n
  end

let locked_count t ~core = t.nlocked.(core)

let locked_lines t ~core =
  List.sort Int.compare (Array.to_list (Array.sub t.locked.(core) 0 t.nlocked.(core)))

let unlock_all t ~core =
  let held = t.locked.(core) in
  for i = 0 to t.nlocked.(core) - 1 do
    set t.holder held.(i) 0
  done;
  t.nlocked.(core) <- 0
