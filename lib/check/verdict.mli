(** Combined result of the oracles over one run. *)

type t = {
  commits : int;  (** witnesses checked *)
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
      (** static-vs-dynamic soundness gate; [None] when no gate was
          supplied to {!evaluate} *)
}

val ok : t -> bool

val evaluate : ?static_gate:Staticcheck.Gate.t -> Collector.t -> final:Mem.Store.image -> t
(** Run serializability, replay, and lock-safety over a completed run's
    collector; with [static_gate], additionally assert every witness's
    footprint lies inside the static may-sets and every end-of-discovery
    decision inside the static envelope. Raises [Invalid_argument] if the
    collector never received an initial snapshot (i.e. the engine was not
    created with it). *)

val of_stream : Stream.t -> final:Mem.Store.image -> t
(** Close a streaming checker ({!Stream.finish}) and package its results.
    For the same run, the verdict is identical — field for field, including
    which violation is reported first — to {!evaluate} over an accumulating
    collector; only the peak memory differs. *)

val oracles : t -> string list
(** Report names of the oracles that ran, in report order: serializability,
    replay, lock-safety, then static-gate when a gate was supplied. *)

val pp : Format.formatter -> t -> unit
(** Multi-line report: one PASS/FAIL line per oracle, violation details on
    failure. *)

val to_string : t -> string
