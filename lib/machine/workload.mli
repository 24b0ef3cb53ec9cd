(** Workload interface: what a benchmark provides to the simulator.

    A workload owns a static set of atomic regions (mini-ISA bodies), a
    one-time memory initialiser and a per-thread driver. The driver models
    the code outside atomic regions: it picks the next operation and computes
    the AR's initial registers (indices, pointers, operand values). Driver
    work is charged as think time, not simulated instruction by
    instruction — the paper's region of interest is the parallel phase, whose
    behaviour is dominated by the ARs. *)

type op = {
  ar : Isa.Program.ar;
  init_regs : (Isa.Instr.reg * int) list;
      (** architectural registers live at AR entry; identical on retries *)
  extra_think : int;  (** additional pre-AR cycles beyond the configured
                          think time *)
  lock_id : int;
      (** the mutex protecting this critical section. Ignored by the HTM
          front-end (one global fallback lock); under SLE the fallback path
          acquires exactly this lock, so independent regions (e.g. different
          hash buckets) serialize independently *)
}

type driver = unit -> op
(** Called once per operation; may keep per-thread state in its closure. *)

type t = {
  name : string;
  description : string;
  ars : Isa.Program.ar list;  (** every static AR, for Table 1 *)
  memory_words : int;  (** backing-store size this workload needs *)
  setup : Mem.Store.t -> Simrt.Rng.t -> unit;
      (** initialise shared data structures before threads start *)
  make_driver : tid:int -> threads:int -> Mem.Store.t -> Simrt.Rng.t -> driver;
}

val op : ?extra_think:int -> ?lock_id:int -> Isa.Program.ar -> (Isa.Instr.reg * int) list -> op
(** [lock_id] defaults to 0, a single workload-wide mutex. *)

val find_ar : t -> string -> Isa.Program.ar
(** Look up a static AR by name; raises [Not_found]. *)
