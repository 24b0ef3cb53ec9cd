(** Named event counters.

    A [Counter.set] is a bag of monotonically increasing counters used for
    statistics and energy accounting. Counters are created on first use so
    call sites stay terse. *)

type set

val create_set : unit -> set

val incr : set -> string -> unit
(** Add 1 to the named counter. *)

val add : set -> string -> int -> unit
(** Add an arbitrary non-negative amount. *)

val get : set -> string -> int
(** Current value; 0 if never touched. *)

val to_list : set -> (string * int) list
(** All counters, sorted by name. *)

val reset : set -> unit
(** Drop every counter. Cells resolved before the reset keep counting into
    the dropped entries, so do not reset a set that has live cells. *)

val merge_into : dst:set -> set -> unit
(** Accumulate every counter of the source into [dst]. *)

(** {1 Cells}

    A [cell] is a handle on one named counter of a set, for hot paths that
    bump the same counter millions of times. Making a cell does not create
    the counter; the first {!bump} does, exactly as {!add} would (even a
    bump by 0), and resolves the handle so later bumps skip the name lookup.
    {!to_list} and {!get} therefore read the same with cells as with
    {!add}. *)

type cell

val cell : set -> string -> cell

val bump : cell -> int -> unit
(** [bump c n] is [add set name n] for [c]'s set and name. *)
