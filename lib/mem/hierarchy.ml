module Counter = Simrt.Counter

type outcome = { latency : int; l1_evicted : Addr.line list }

type t = {
  params : Params.t;
  store : Store.t;
  directory : Directory.t;
  l1s : Cache.t array;
  l2s : Cache.t array;
  l3 : Cache.t;
  numa : Numa.t;
  cores : int;
  l1_hit_outcome : outcome; (* shared by every L1 hit: nothing evicted *)
  (* Counter cells, resolved on first bump (see [Counter.cell]). *)
  l1_hit : Counter.cell;
  l2_hit : Counter.cell;
  l3_hit : Counter.cell;
  mem_access : Counter.cell;
  coh_msgs : Counter.cell;
  remote_transfer : Counter.cell;
  line_locks : Counter.cell;
  numa_adder_cycles : Counter.cell;
}

let create ?(numa = Numa.flat) params ~cores ~store ~counters =
  if not (Numa.well_formed numa) then invalid_arg "Hierarchy.create: malformed NUMA matrix";
  let cell = Counter.cell counters in
  {
    params;
    store;
    directory = Directory.create ~cores;
    l1s = Array.init cores (fun _ -> Cache.create ~sets:params.Params.l1_sets ~ways:params.Params.l1_ways);
    l2s = Array.init cores (fun _ -> Cache.create ~sets:params.Params.l2_sets ~ways:params.Params.l2_ways);
    l3 = Cache.create ~sets:params.Params.l3_sets ~ways:params.Params.l3_ways;
    numa;
    cores;
    l1_hit_outcome = { latency = Params.load_latency params ~level:`L1; l1_evicted = [] };
    l1_hit = cell "l1_hit";
    l2_hit = cell "l2_hit";
    l3_hit = cell "l3_hit";
    mem_access = cell "mem_access";
    coh_msgs = cell "coh_msgs";
    remote_transfer = cell "remote_transfer";
    line_locks = cell "line_locks";
    numa_adder_cycles = cell "numa_adder_cycles";
  }

let params t = t.params

let store t = t.store

let directory t = t.directory

let l1 t ~core = t.l1s.(core)

let lock_holder t line = Directory.lock_holder t.directory line

let numa t = t.numa

(* The extra cycles [core] pays to consult [line]'s home directory slice.
   Zero on the symmetric machine ([Numa.flat]); charged only when an access
   actually leaves the private caches, so L1 hits stay socket-blind. *)
let numa_adder t ~core line =
  Numa.adder t.numa ~cores:t.cores ~core ~dir_set:(Params.dir_set_of t.params line)

let charge_numa t n =
  if n > 0 then Counter.bump t.numa_adder_cycles n;
  n

(* Install [line] in [core]'s private caches, spilling L1 victims into L2 and
   dropping L2 victims from the directory when they are no longer cached
   privately. Returns the L1 victims. *)
let install_private t ~core line =
  let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
  let evicted = ref [] in
  (match Cache.insert l1 line with
  | None -> ()
  | Some victim ->
      evicted := [ victim ];
      (match Cache.insert l2 victim with
      | None -> ()
      | Some l2_victim ->
          if not (Cache.mem l1 l2_victim) then Directory.drop_core t.directory ~core l2_victim));
  ignore (Cache.insert l2 line : Addr.line option);
  !evicted

let charge_coherence t (coh : Directory.coherence) =
  Counter.bump t.coh_msgs coh.msgs;
  if coh.from_remote then Counter.bump t.remote_transfer 1;
  (coh.msgs * t.params.Params.coherence_msg / 4)
  + if coh.from_remote then t.params.Params.remote_transfer else 0

let rec invalidate_remote t line = function
  | [] -> ()
  | c :: rest ->
      ignore (Cache.invalidate t.l1s.(c) line : bool);
      ignore (Cache.invalidate t.l2s.(c) line : bool);
      invalidate_remote t line rest

let access t ~core line ~exclusive =
  let p = t.params in
  if lock_holder t line = core then begin
    (* Pinned by our own cacheline lock: guaranteed L1-latency hit. *)
    Counter.bump t.l1_hit 1;
    t.l1_hit_outcome
  end
  else begin
    let dir = t.directory in
    let coh =
      if exclusive then begin
        let coh, invalidated = Directory.write dir ~core line in
        invalidate_remote t line invalidated;
        coh
      end
      else Directory.read dir ~core line
    in
    let coh_latency = charge_coherence t coh in
    let numa = numa_adder t ~core line in
    let l1 = t.l1s.(core) and l2 = t.l2s.(core) in
    (* An exclusive access that had to invalidate other copies pays the
       coherence round-trip even if its own tags hit. *)
    if Cache.touch l1 line && coh.msgs = 0 then begin
      Counter.bump t.l1_hit 1;
      t.l1_hit_outcome
    end
    else if Cache.touch l2 line && not coh.from_remote then begin
      Counter.bump t.l2_hit 1;
      (* Private hit, but any coherence exchange went through the line's
         home slice — cross-socket requesters pay the asymmetry adder. *)
      let remote = if coh.msgs > 0 then charge_numa t numa else 0 in
      let evicted = install_private t ~core line in
      { latency = Params.load_latency p ~level:`L2 + coh_latency + remote; l1_evicted = evicted }
    end
    else begin
      let level =
        if coh.from_remote then begin
          Counter.bump t.l3_hit 1;
          `L3
        end
        else if Cache.touch t.l3 line then begin
          Counter.bump t.l3_hit 1;
          `L3
        end
        else begin
          Counter.bump t.mem_access 1;
          `Mem
        end
      in
      ignore (Cache.insert t.l3 line : Addr.line option);
      let evicted = install_private t ~core line in
      (* Fills beyond the private caches are serviced via the home slice:
         always charge the asymmetry adder on this path. *)
      { latency = Params.load_latency p ~level + coh_latency + charge_numa t numa;
        l1_evicted = evicted }
    end
  end

let read_line t ~core line =
  let holder = lock_holder t line in
  if holder >= 0 && holder <> core then
    (* Callers must check the lock first; reading through a remote lock
       would violate atomicity. *)
    invalid_arg "Hierarchy.read_line: line locked by another core"
  else access t ~core line ~exclusive:false

let write_line t ~core line =
  let holder = lock_holder t line in
  if holder >= 0 && holder <> core then invalid_arg "Hierarchy.write_line: line locked by another core"
  else access t ~core line ~exclusive:true

let lock_line t ~core line =
  match Directory.lock t.directory ~core line with
  | `Held_by holder -> `Held_by holder
  | `Acquired invalidated ->
      invalidate_remote t line invalidated;
      Counter.bump t.line_locks 1;
      Counter.bump t.coh_msgs 2;
      let evicted = install_private t ~core line in
      let transfer = if invalidated <> [] then t.params.Params.remote_transfer else 0 in
      (* Lock acquisition always talks to the home slice. *)
      let remote = charge_numa t (numa_adder t ~core line) in
      `Acquired { latency = t.params.Params.coherence_msg + transfer + remote; l1_evicted = evicted }

let unlock_line t ~core line = Directory.unlock t.directory ~core line

let locked_lines t ~core = Directory.locked_lines t.directory ~core

let unlock_all t ~core =
  let n = Directory.locked_count t.directory ~core in
  Directory.unlock_all t.directory ~core;
  Counter.bump t.coh_msgs (if n = 0 then 0 else 1);
  n

let flush_core t ~core =
  Cache.iter t.l1s.(core) (fun line -> Directory.drop_core t.directory ~core line);
  Cache.iter t.l2s.(core) (fun line -> Directory.drop_core t.directory ~core line);
  Cache.clear t.l1s.(core);
  Cache.clear t.l2s.(core)
