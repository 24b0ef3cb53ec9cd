(** Lock-safety invariants over the engine's lock/release event stream.

    CLEAR's cacheline-lock machinery must uphold three invariants, checked
    here event by event over the complete stream (the bounded trace ring
    may drop events; this stream never does):

    - {b mutual exclusion}: a line is never locked by two cores at once;
    - {b lexicographic acquisition}: within one attempt, ALT locks are taken
      in non-decreasing directory-set-index order (the deadlock-avoidance
      argument of the paper relies on this total order);
    - {b complete release}: every lock taken during an attempt is released by
      the matching commit or abort — nothing leaks past [Attempt_end], and
      nothing is unlocked that was never locked. *)

type event =
  | Attempt_begin of { time : int; core : int }
  | Lock of { time : int; core : int; line : Mem.Addr.line; key : int }
      (** [key] is the lexicographic acquisition key (directory set index). *)
  | Unlock of { time : int; core : int; line : Mem.Addr.line }
  | Attempt_end of { time : int; core : int }

type violation = { time : int; core : int; reason : string }

val pp_violation : Format.formatter -> violation -> unit

type t

val create : cores:int -> t

val add : t -> event -> (unit, violation) result
(** Feed events in emission order. After an [Error] the state is undefined. *)

val finish : t -> (unit, violation) result
(** End-of-run check: no core may still hold a lock. *)
