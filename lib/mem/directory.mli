(** Full-map MESI directory with cacheline locking.

    Per-line state lives in line-indexed pages allocated on first write;
    untouched lines read as unowned, unshared and unlocked. Tracks the exclusive owner
    (M/E), the sharer set (bitmask over cores) and the CLEAR lock holder. The
    directory is the ordering point: lock acquisition, invalidation and
    downgrade all happen atomically at simulation-event granularity, which is
    the retry-based protocol the paper adopts to avoid the transient-state
    deadlock of its Figure 6. *)

type t

val max_cores : int
(** The most cores a directory tracks (62: one sharer-mask bit per core). *)

val create : cores:int -> t
(** Raises [Invalid_argument] unless [1 <= cores <= max_cores]. *)

val cores : t -> int

(** Outcome of a coherence request, used for latency/energy accounting. *)
type coherence = {
  msgs : int;  (** directory message hops incurred *)
  from_remote : bool;  (** data was sourced from a remote private cache *)
}

val read : t -> core:int -> Addr.line -> coherence
(** Obtain a shared copy. Downgrades a remote modified owner if needed. *)

val write : t -> core:int -> Addr.line -> coherence * int list
(** Obtain an exclusive copy. Returns the cores whose copies were invalidated
    (used to propagate invalidations into their private tag stores).
    Allocates only when some copy is invalidated. Raises [Invalid_argument]
    on a negative line. *)

val drop_core : t -> core:int -> Addr.line -> unit
(** Remove [core] from the entry (on private-cache eviction). *)

val owner : t -> Addr.line -> int option

val is_sharer : t -> core:int -> Addr.line -> bool

(** {1 Cacheline locking} *)

val lock : t -> core:int -> Addr.line -> [ `Acquired of int list | `Held_by of int ]
(** Try to lock the line for [core]. Locking implies exclusive ownership:
    acquisition invalidates other copies, and the cores whose copies were
    invalidated are returned so callers can update private tag stores.
    Re-locking one's own line is [`Acquired \[\]]. *)

val unlock : t -> core:int -> Addr.line -> unit
(** Release; no-op if [core] does not hold the lock. *)

val unlock_all : t -> core:int -> unit
(** Bulk release of every line locked by [core] (end of a CL-mode AR). *)

val lock_holder : t -> Addr.line -> int
(** The core holding the line's lock, or [-1]. Allocation-free form of
    {!locked_by} for the per-access path. *)

val locked_by : t -> Addr.line -> int option

val locked_lines : t -> core:int -> Addr.line list
(** Every line [core] holds locked, ascending. *)

val locked_count : t -> core:int -> int
(** [List.length (locked_lines t ~core)], without building the list. *)
