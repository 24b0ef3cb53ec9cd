(** Conflict-graph serializability violations over committed witnesses.

    The oracle ({!Stream}) builds the direct-serialization graph
    incrementally in commit order. The candidate serial order is the commit
    order itself, so the check reduces to: no temporal dependency may point
    {e against} commit order. For each shared line it tracks the last
    committed writer (with its visibility time) and the readers since that
    writer; each new witness is checked against that state in
    O(footprint).

    Three violation kinds, each a minimal two-node cycle with an
    earlier-committed witness:

    - {b Rw}: the later committer read the line {e before} the earlier
      writer's write became visible — it observed the pre-write value, so an
      anti-dependency (later → earlier) closes a cycle with commit order.
    - {b Ww}: the later committer's write became visible {e before} the
      earlier writer's — the final value in memory is the earlier commit's,
      inverting the write order implied by commit order.
    - {b Wr}: a direct-mode writer's store became visible {e before} a read
      performed by an already-committed witness — the earlier commit read
      data from a transaction serialized after it.

    All comparisons are strict; same-cycle ties are accepted (see
    DESIGN.md §9 for why the engine's same-cycle doom processing makes those
    benign, and what that blind spot costs). *)

type kind = Rw | Ww | Wr

type violation = {
  earlier : Witness.t;  (** committed first *)
  later : Witness.t;  (** committed second, closes the cycle *)
  line : Mem.Addr.line;
  kind : kind;
  detail : string;
}

val pp_violation : Format.formatter -> violation -> unit
(** Prints the minimal witness cycle: commit-order edge one way, temporal
    dependency the other. *)
