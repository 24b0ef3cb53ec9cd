(* Tests for the memory substrate: addresses, backing store, caches,
   directory and hierarchy. *)

module Addr = Mem.Addr
module Store = Mem.Store
module Cache = Mem.Cache
module Params = Mem.Params
module Directory = Mem.Directory
module Hierarchy = Mem.Hierarchy
module Counter = Simrt.Counter

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_arithmetic () =
  Alcotest.(check int) "line of 0" 0 (Addr.line_of 0);
  Alcotest.(check int) "line of 7" 0 (Addr.line_of 7);
  Alcotest.(check int) "line of 8" 1 (Addr.line_of 8);
  Alcotest.(check int) "line base" 16 (Addr.line_base 2);
  Alcotest.(check int) "offset" 5 (Addr.line_offset 13);
  Alcotest.(check bool) "same line" true (Addr.same_line 8 15);
  Alcotest.(check bool) "different line" false (Addr.same_line 7 8)

let prop_line_roundtrip =
  QCheck.Test.make ~name:"line_base/line_of roundtrip" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun a -> Addr.line_base (Addr.line_of a) + Addr.line_offset a = a)

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_rw () =
  let s = Store.create ~words:64 in
  Store.write s 10 99;
  Alcotest.(check int) "read back" 99 (Store.read s 10);
  Alcotest.(check int) "zero init" 0 (Store.read s 11);
  Store.fill s 20 ~len:4 7;
  Alcotest.(check int) "fill start" 7 (Store.read s 20);
  Alcotest.(check int) "fill end" 7 (Store.read s 23);
  Alcotest.(check int) "fill stops" 0 (Store.read s 24)

let test_store_bounds () =
  let s = Store.create ~words:8 in
  Alcotest.check_raises "read oob"
    (Invalid_argument "Store.read: address 8 out of bounds") (fun () -> ignore (Store.read s 8));
  Alcotest.check_raises "write negative"
    (Invalid_argument "Store.write: address -1 out of bounds") (fun () -> Store.write s (-1) 0)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_miss () =
  let c = Cache.create ~sets:4 ~ways:2 in
  Alcotest.(check bool) "miss" false (Cache.touch c 12);
  Alcotest.(check (option int)) "insert into empty" None (Cache.insert c 12);
  Alcotest.(check bool) "hit" true (Cache.touch c 12);
  Alcotest.(check bool) "mem" true (Cache.mem c 12)

let test_cache_lru_eviction () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  (* touch 1 so 2 becomes LRU *)
  ignore (Cache.touch c 1);
  Alcotest.(check (option int)) "evicts LRU" (Some 2) (Cache.insert c 3);
  Alcotest.(check bool) "1 survives" true (Cache.mem c 1)

let test_cache_invalidate () =
  let c = Cache.create ~sets:2 ~ways:2 in
  ignore (Cache.insert c 4);
  Alcotest.(check bool) "present" true (Cache.invalidate c 4);
  Alcotest.(check bool) "absent now" false (Cache.mem c 4);
  Alcotest.(check bool) "absent invalidate" false (Cache.invalidate c 4)

let test_cache_would_fit () =
  let c = Cache.create ~sets:2 ~ways:2 in
  (* lines 0,2,4 all map to set 0 — three in a 2-way set do not fit *)
  Alcotest.(check bool) "fits" true (Cache.would_fit c [ 0; 2; 1 ]);
  Alcotest.(check bool) "does not fit" false (Cache.would_fit c [ 0; 2; 4 ])

let test_cache_reinsert_no_evict () =
  let c = Cache.create ~sets:1 ~ways:2 in
  ignore (Cache.insert c 1);
  ignore (Cache.insert c 2);
  Alcotest.(check (option int)) "reinsert hits" None (Cache.insert c 1)

let prop_cache_within_ways_no_eviction =
  QCheck.Test.make ~name:"inserting <= ways distinct lines of one set never evicts" ~count:200
    QCheck.(int_range 1 8)
    (fun ways ->
      let sets = 4 in
      let c = Cache.create ~sets ~ways in
      (* lines i*sets all map to set 0 *)
      List.for_all
        (fun i -> Cache.insert c (i * sets) = None)
        (List.init ways (fun i -> i)))

(* Model check of the chunked tag store against the flat one it replaced,
   kept here verbatim as the reference: one (sets * ways) tag array and a
   parallel age array, allocated up front. *)
module Flat_cache = struct
  type t = { sets : int; ways : int; tags : int array; age : int array; mutable tick : int }

  let create ~sets ~ways =
    { sets; ways; tags = Array.make (sets * ways) (-1); age = Array.make (sets * ways) 0; tick = 0 }

  let set_of t line = line land (t.sets - 1)

  let find_way t line =
    let base = set_of t line * t.ways in
    let rec loop w =
      if w = t.ways then None else if t.tags.(base + w) = line then Some (base + w) else loop (w + 1)
    in
    loop 0

  let mem t line = find_way t line <> None

  let bump t i =
    t.tick <- t.tick + 1;
    t.age.(i) <- t.tick

  let touch t line =
    match find_way t line with
    | Some i ->
        bump t i;
        true
    | None -> false

  let insert t line =
    match find_way t line with
    | Some i ->
        bump t i;
        None
    | None ->
        let base = set_of t line * t.ways in
        let victim = ref base in
        let found_empty = ref false in
        for w = 0 to t.ways - 1 do
          let i = base + w in
          if (not !found_empty) && t.tags.(i) = -1 then begin
            victim := i;
            found_empty := true
          end
          else if (not !found_empty) && t.age.(i) < t.age.(!victim) then victim := i
        done;
        let evicted = t.tags.(!victim) in
        t.tags.(!victim) <- line;
        bump t !victim;
        if evicted = -1 then None else Some evicted

  let invalidate t line =
    match find_way t line with
    | Some i ->
        t.tags.(i) <- -1;
        t.age.(i) <- 0;
        true
    | None -> false

  let lines_in_set_of t line =
    let base = set_of t line * t.ways in
    let n = ref 0 in
    for w = 0 to t.ways - 1 do
      if t.tags.(base + w) <> -1 then incr n
    done;
    !n

  let would_fit t lines =
    let per_set = Hashtbl.create 16 in
    List.for_all
      (fun line ->
        let s = set_of t line in
        let n = match Hashtbl.find_opt per_set s with Some r -> r | None -> 0 in
        Hashtbl.replace per_set s (n + 1);
        n + 1 <= t.ways)
      lines

  let iter t f = Array.iter (fun tag -> if tag <> -1 then f tag) t.tags

  let clear t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.age 0 (Array.length t.age) 0;
    t.tick <- 0
end

type cache_op =
  | C_mem of int
  | C_touch of int
  | C_insert of int
  | C_invalidate of int
  | C_occupancy of int
  | C_fit of int list
  | C_clear

let prop_cache_matches_flat =
  let open QCheck.Gen in
  let gen =
    (* 1..64 sets: single-chunk and multi-chunk geometries; lines up to 8x
       the set count so sets overflow and evict. *)
    int_range 0 6 >>= fun log_sets ->
    int_range 1 5 >>= fun ways ->
    let sets = 1 lsl log_sets in
    let line = int_range 0 ((8 * sets) - 1) in
    let op =
      frequency
        [
          (2, map (fun l -> C_mem l) line);
          (3, map (fun l -> C_touch l) line);
          (6, map (fun l -> C_insert l) line);
          (2, map (fun l -> C_invalidate l) line);
          (1, map (fun l -> C_occupancy l) line);
          (1, map (fun ls -> C_fit ls) (list_size (int_range 0 8) line));
          (1, return C_clear);
        ]
    in
    map (fun ops -> (sets, ways, ops)) (list_size (int_range 0 150) op)
  in
  let print (sets, ways, ops) = Printf.sprintf "%d sets x %d ways, %d ops" sets ways (List.length ops) in
  QCheck.Test.make ~name:"chunked cache == flat cache" ~count:300 (QCheck.make ~print gen)
    (fun (sets, ways, ops) ->
      let c = Cache.create ~sets ~ways and r = Flat_cache.create ~sets ~ways in
      let same_contents () =
        let got = ref [] and want = ref [] in
        Cache.iter c (fun l -> got := l :: !got);
        Flat_cache.iter r (fun l -> want := l :: !want);
        !got = !want
      in
      List.for_all
        (fun op ->
          (match op with
          | C_mem l -> Cache.mem c l = Flat_cache.mem r l
          | C_touch l -> Cache.touch c l = Flat_cache.touch r l
          | C_insert l -> Cache.insert c l = Flat_cache.insert r l
          | C_invalidate l -> Cache.invalidate c l = Flat_cache.invalidate r l
          | C_occupancy l -> Cache.lines_in_set_of c l = Flat_cache.lines_in_set_of r l
          | C_fit ls -> Cache.would_fit c ls = Flat_cache.would_fit r ls
          | C_clear ->
              Cache.clear c;
              Flat_cache.clear r;
              true)
          && same_contents ())
        ops)

let test_cache_geometry_validation () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Cache.create: sets must be a positive power of two") (fun () ->
      ignore (Cache.create ~sets:3 ~ways:1))

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_latency_monotonic () =
  let p = Params.icelake_like in
  let l1 = Params.load_latency p ~level:`L1 in
  let l2 = Params.load_latency p ~level:`L2 in
  let l3 = Params.load_latency p ~level:`L3 in
  let mem = Params.load_latency p ~level:`Mem in
  Alcotest.(check bool) "monotonic" true (l1 < l2 && l2 < l3 && l3 < mem);
  Alcotest.(check int) "l1 is 1 cycle" 1 l1

let test_params_dir_set () =
  let p = Params.tiny in
  Alcotest.(check int) "wraps" (Params.dir_set_of p 0) (Params.dir_set_of p p.Params.dir_sets)

(* ------------------------------------------------------------------ *)
(* Directory *)

let test_directory_read_then_write () =
  let d = Directory.create ~cores:4 in
  let c = Directory.read d ~core:0 100 in
  Alcotest.(check bool) "first read not remote" false c.Directory.from_remote;
  let _ = Directory.read d ~core:1 100 in
  Alcotest.(check bool) "both sharers" true (Directory.is_sharer d ~core:0 100 && Directory.is_sharer d ~core:1 100);
  let _, invalidated = Directory.write d ~core:2 100 in
  Alcotest.(check (list int)) "invalidates sharers" [ 0; 1 ] (List.sort compare invalidated);
  Alcotest.(check (option int)) "owner" (Some 2) (Directory.owner d 100)

let test_directory_write_then_read_remote () =
  let d = Directory.create ~cores:2 in
  let _ = Directory.write d ~core:0 5 in
  let c = Directory.read d ~core:1 5 in
  Alcotest.(check bool) "remote transfer" true c.Directory.from_remote;
  Alcotest.(check (option int)) "owner downgraded" None (Directory.owner d 5)

let test_directory_repeat_write_free () =
  let d = Directory.create ~cores:2 in
  let _ = Directory.write d ~core:0 5 in
  let c, inv = Directory.write d ~core:0 5 in
  Alcotest.(check int) "no messages" 0 c.Directory.msgs;
  Alcotest.(check (list int)) "no invalidation" [] inv

let test_directory_locking () =
  let d = Directory.create ~cores:3 in
  let _ = Directory.read d ~core:1 7 in
  (match Directory.lock d ~core:0 7 with
  | `Acquired invalidated -> Alcotest.(check (list int)) "lock invalidates" [ 1 ] invalidated
  | `Held_by _ -> Alcotest.fail "expected acquisition");
  (match Directory.lock d ~core:2 7 with
  | `Held_by h -> Alcotest.(check int) "held by 0" 0 h
  | `Acquired _ -> Alcotest.fail "expected busy");
  (match Directory.lock d ~core:0 7 with
  | `Acquired [] -> ()
  | `Acquired _ | `Held_by _ -> Alcotest.fail "relock by owner should be free");
  Directory.unlock d ~core:0 7;
  Alcotest.(check (option int)) "unlocked" None (Directory.locked_by d 7)

let test_directory_unlock_all () =
  let d = Directory.create ~cores:2 in
  List.iter (fun l -> ignore (Directory.lock d ~core:0 l)) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "locked list sorted" [ 1; 2; 3 ] (Directory.locked_lines d ~core:0);
  Directory.unlock_all d ~core:0;
  Alcotest.(check (list int)) "all released" [] (Directory.locked_lines d ~core:0);
  Alcotest.(check (option int)) "entry unlocked" None (Directory.locked_by d 1)

let test_directory_unlock_wrong_core () =
  let d = Directory.create ~cores:2 in
  ignore (Directory.lock d ~core:0 9);
  Directory.unlock d ~core:1 9;
  Alcotest.(check (option int)) "still held" (Some 0) (Directory.locked_by d 9)

(* Model check of the paged directory against a reference that keeps one
   entry per touched line in a Hashtbl (the representation the pages
   replaced), over random request scripts. Lines are drawn around page
   boundaries and far beyond the initial page table, so page allocation,
   table growth and reads of untouched pages are all exercised. *)
module Ref_directory = struct
  type entry = { mutable owner : int; mutable sharers : int; mutable locked_by : int }

  type t = { cores : int; entries : (int, entry) Hashtbl.t; locked : (int, int) Hashtbl.t }

  let create ~cores = { cores; entries = Hashtbl.create 64; locked = Hashtbl.create 16 }

  let entry t line =
    match Hashtbl.find_opt t.entries line with
    | Some e -> e
    | None ->
        let e = { owner = -1; sharers = 0; locked_by = -1 } in
        Hashtbl.add t.entries line e;
        e

  let bit core = 1 lsl core

  let read t ~core line =
    let e = entry t line in
    if e.owner = core || e.sharers land bit core <> 0 then (0, false)
    else if e.owner >= 0 then begin
      e.sharers <- e.sharers lor bit e.owner lor bit core;
      e.owner <- -1;
      (3, true)
    end
    else begin
      e.sharers <- e.sharers lor bit core;
      (2, false)
    end

  let write t ~core line =
    let e = entry t line in
    if e.owner = core && e.sharers = 0 then ((0, false), [])
    else begin
      let invalidated = ref [] in
      if e.owner >= 0 && e.owner <> core then invalidated := [ e.owner ];
      for c = t.cores - 1 downto 0 do
        if c <> core && e.sharers land bit c <> 0 then invalidated := c :: !invalidated
      done;
      let from_remote = e.owner >= 0 && e.owner <> core in
      e.owner <- core;
      e.sharers <- 0;
      ((2 + List.length !invalidated, from_remote), !invalidated)
    end

  let drop_core t ~core line =
    match Hashtbl.find_opt t.entries line with
    | None -> ()
    | Some e ->
        if e.owner = core then e.owner <- -1;
        e.sharers <- e.sharers land lnot (bit core)

  let owner t line =
    match Hashtbl.find_opt t.entries line with Some e when e.owner >= 0 -> Some e.owner | _ -> None

  let is_sharer t ~core line =
    match Hashtbl.find_opt t.entries line with
    | Some e -> e.owner = core || e.sharers land bit core <> 0
    | None -> false

  let locked_by t line =
    match Hashtbl.find_opt t.entries line with
    | Some e when e.locked_by >= 0 -> Some e.locked_by
    | _ -> None

  let lock t ~core line =
    let e = entry t line in
    if e.locked_by = core then `Acquired []
    else if e.locked_by >= 0 then `Held_by e.locked_by
    else begin
      let _, invalidated = write t ~core line in
      e.locked_by <- core;
      Hashtbl.replace t.locked line core;
      `Acquired invalidated
    end

  let unlock t ~core line =
    match Hashtbl.find_opt t.entries line with
    | Some e when e.locked_by = core ->
        e.locked_by <- -1;
        Hashtbl.remove t.locked line
    | _ -> ()

  let locked_lines t ~core =
    Hashtbl.fold (fun line c acc -> if c = core then line :: acc else acc) t.locked []
    |> List.sort Int.compare

  let unlock_all t ~core = List.iter (fun line -> unlock t ~core line) (locked_lines t ~core)
end

type dir_op =
  | D_read of int * int
  | D_write of int * int
  | D_lock of int * int
  | D_unlock of int * int
  | D_unlock_all of int
  | D_drop of int * int

let prop_directory_matches_reference =
  let cores = 5 in
  let lines =
    [| 0; 1; 254; 255; 256; 257; 511; 512; 4095; 4096; 4097; 70_000; 1_000_000; 1_000_191;
       1_000_192; 50_000_001 |]
  in
  let open QCheck.Gen in
  let core = int_range 0 (cores - 1) and line = map (fun i -> lines.(i)) (int_range 0 (Array.length lines - 1)) in
  let op =
    frequency
      [
        (4, map2 (fun c l -> D_read (c, l)) core line);
        (3, map2 (fun c l -> D_write (c, l)) core line);
        (2, map2 (fun c l -> D_lock (c, l)) core line);
        (2, map2 (fun c l -> D_unlock (c, l)) core line);
        (1, map (fun c -> D_unlock_all c) core);
        (2, map2 (fun c l -> D_drop (c, l)) core line);
      ]
  in
  QCheck.Test.make ~name:"paged directory == hashtable reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "%d ops" (List.length ops))
       (list_size (int_range 0 200) op))
    (fun ops ->
      let d = Directory.create ~cores and r = Ref_directory.create ~cores in
      let coh (c : Directory.coherence) = (c.Directory.msgs, c.Directory.from_remote) in
      let same_state () =
        Array.for_all
          (fun l ->
            Directory.owner d l = Ref_directory.owner r l
            && Directory.locked_by d l = Ref_directory.locked_by r l
            && Directory.lock_holder d l
               = (match Ref_directory.locked_by r l with Some h -> h | None -> -1)
            && List.for_all
                 (fun c -> Directory.is_sharer d ~core:c l = Ref_directory.is_sharer r ~core:c l)
                 (List.init cores Fun.id))
          lines
        && List.for_all
             (fun c ->
               Directory.locked_lines d ~core:c = Ref_directory.locked_lines r ~core:c
               && Directory.locked_count d ~core:c = List.length (Ref_directory.locked_lines r ~core:c))
             (List.init cores Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | D_read (c, l) -> coh (Directory.read d ~core:c l) = Ref_directory.read r ~core:c l
          | D_write (c, l) ->
              let got, inv = Directory.write d ~core:c l in
              (coh got, inv) = Ref_directory.write r ~core:c l
          | D_lock (c, l) -> Directory.lock d ~core:c l = Ref_directory.lock r ~core:c l
          | D_unlock (c, l) ->
              Directory.unlock d ~core:c l;
              Ref_directory.unlock r ~core:c l;
              true
          | D_unlock_all c ->
              Directory.unlock_all d ~core:c;
              Ref_directory.unlock_all r ~core:c;
              true
          | D_drop (c, l) ->
              Directory.drop_core d ~core:c l;
              Ref_directory.drop_core r ~core:c l;
              true)
          && same_state ())
        ops)

(* ------------------------------------------------------------------ *)
(* Hierarchy *)

let make_hierarchy () =
  let store = Store.create ~words:(1 lsl 16) in
  let counters = Counter.create_set () in
  (Hierarchy.create Params.icelake_like ~cores:2 ~store ~counters, counters)

let test_hierarchy_latency_progression () =
  let h, _ = make_hierarchy () in
  let p = Hierarchy.params h in
  let first = Hierarchy.read_line h ~core:0 42 in
  (* A cold read pays the full miss path plus the directory messages. *)
  Alcotest.(check bool) "cold read costs at least a memory access" true
    (first.Hierarchy.latency >= Params.load_latency p ~level:`Mem);
  let second = Hierarchy.read_line h ~core:0 42 in
  Alcotest.(check int) "warm read from L1" (Params.load_latency p ~level:`L1)
    second.Hierarchy.latency

let test_hierarchy_remote_transfer () =
  let h, _ = make_hierarchy () in
  let _ = Hierarchy.write_line h ~core:0 42 in
  let remote = Hierarchy.read_line h ~core:1 42 in
  Alcotest.(check bool) "remote read dearer than L1" true
    (remote.Hierarchy.latency > Params.load_latency (Hierarchy.params h) ~level:`L1)

let test_hierarchy_write_invalidates_reader () =
  let h, _ = make_hierarchy () in
  let _ = Hierarchy.read_line h ~core:1 42 in
  let _ = Hierarchy.write_line h ~core:0 42 in
  Alcotest.(check bool) "reader's copy dropped" false (Cache.mem (Hierarchy.l1 h ~core:1) 42)

let test_hierarchy_lock_fast_path () =
  let h, _ = make_hierarchy () in
  (match Hierarchy.lock_line h ~core:0 42 with
  | `Acquired _ -> ()
  | `Held_by _ -> Alcotest.fail "lock should succeed");
  let read = Hierarchy.read_line h ~core:0 42 in
  Alcotest.(check int) "locked line hits at L1 cost"
    (Params.load_latency (Hierarchy.params h) ~level:`L1)
    read.Hierarchy.latency;
  (match Hierarchy.lock_line h ~core:1 42 with
  | `Held_by holder -> Alcotest.(check int) "holder" 0 holder
  | `Acquired _ -> Alcotest.fail "should be held");
  Alcotest.(check int) "unlock_all count" 1 (Hierarchy.unlock_all h ~core:0)

let test_hierarchy_remote_locked_access_rejected () =
  let h, _ = make_hierarchy () in
  ignore (Hierarchy.lock_line h ~core:0 42);
  Alcotest.check_raises "read through remote lock"
    (Invalid_argument "Hierarchy.read_line: line locked by another core") (fun () ->
      ignore (Hierarchy.read_line h ~core:1 42))

let test_hierarchy_eviction_reported () =
  (* Fill one L1 set beyond capacity and observe the victim. *)
  let store = Store.create ~words:(1 lsl 20) in
  let counters = Counter.create_set () in
  let h = Hierarchy.create Params.tiny ~cores:1 ~store ~counters in
  let p = Params.tiny in
  (* lines k * l1_sets all map to L1 set 0; tiny has 2 ways *)
  let line k = k * p.Params.l1_sets in
  let o1 = Hierarchy.read_line h ~core:0 (line 1) in
  let o2 = Hierarchy.read_line h ~core:0 (line 2) in
  Alcotest.(check (list int)) "no evictions yet" [] (o1.Hierarchy.l1_evicted @ o2.Hierarchy.l1_evicted);
  let o3 = Hierarchy.read_line h ~core:0 (line 3) in
  Alcotest.(check (list int)) "LRU victim evicted" [ line 1 ] o3.Hierarchy.l1_evicted

let test_hierarchy_counters () =
  let h, counters = make_hierarchy () in
  let _ = Hierarchy.read_line h ~core:0 1 in
  let _ = Hierarchy.read_line h ~core:0 1 in
  Alcotest.(check int) "one memory access" 1 (Counter.get counters "mem_access");
  Alcotest.(check int) "one l1 hit" 1 (Counter.get counters "l1_hit")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mem"
    [
      ( "addr",
        [ Alcotest.test_case "arithmetic" `Quick test_addr_arithmetic ]
        @ qsuite [ prop_line_roundtrip ] );
      ( "store",
        [
          Alcotest.test_case "read/write/fill" `Quick test_store_rw;
          Alcotest.test_case "bounds" `Quick test_store_bounds;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          Alcotest.test_case "would_fit" `Quick test_cache_would_fit;
          Alcotest.test_case "reinsert" `Quick test_cache_reinsert_no_evict;
          Alcotest.test_case "geometry validation" `Quick test_cache_geometry_validation;
        ]
        @ qsuite [ prop_cache_within_ways_no_eviction; prop_cache_matches_flat ] );
      ( "params",
        [
          Alcotest.test_case "latency progression" `Quick test_params_latency_monotonic;
          Alcotest.test_case "dir set wraps" `Quick test_params_dir_set;
        ] );
      ( "directory",
        [
          Alcotest.test_case "read then write" `Quick test_directory_read_then_write;
          Alcotest.test_case "remote ownership read" `Quick test_directory_write_then_read_remote;
          Alcotest.test_case "repeat write free" `Quick test_directory_repeat_write_free;
          Alcotest.test_case "locking" `Quick test_directory_locking;
          Alcotest.test_case "unlock_all" `Quick test_directory_unlock_all;
          Alcotest.test_case "unlock wrong core" `Quick test_directory_unlock_wrong_core;
        ]
        @ qsuite [ prop_directory_matches_reference ] );
      ( "hierarchy",
        [
          Alcotest.test_case "latency progression" `Quick test_hierarchy_latency_progression;
          Alcotest.test_case "remote transfer" `Quick test_hierarchy_remote_transfer;
          Alcotest.test_case "write invalidates" `Quick test_hierarchy_write_invalidates_reader;
          Alcotest.test_case "lock fast path" `Quick test_hierarchy_lock_fast_path;
          Alcotest.test_case "remote locked access" `Quick test_hierarchy_remote_locked_access_rejected;
          Alcotest.test_case "eviction reported" `Quick test_hierarchy_eviction_reported;
          Alcotest.test_case "counters" `Quick test_hierarchy_counters;
        ] );
    ]
