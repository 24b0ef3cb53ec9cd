(** Combined result of the oracles over one run. *)

type t = {
  commits : int;  (** witnesses checked *)
  serial : (unit, Serial.violation) result;
  replay : (unit, Replay.divergence) result;
  locks : (unit, Lock_safety.violation) result;
  static_ : (unit, Staticcheck.Gate.violation) result option;
      (** static-vs-dynamic soundness gate; [None] when the checker ran
          without one *)
}

val ok : t -> bool

val of_stream : Stream.t -> final:Mem.Store.image -> t
(** Close a streaming checker ({!Stream.finish}) and package its results.
    The post hoc reference model in [test/reference/] must produce the same
    verdict, field for field, for the same run. *)

val oracles : t -> string list
(** Report names of the oracles that ran, in report order: serializability,
    replay, lock-safety, then static-gate when a gate was supplied. *)

val pp : Format.formatter -> t -> unit
(** Multi-line report: one PASS/FAIL line per oracle, violation details on
    failure. *)

val to_string : t -> string
