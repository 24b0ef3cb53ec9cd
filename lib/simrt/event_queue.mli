(** Binary min-heap priority queue ordering simulator events by time.

    The global simulation loop pops the event with the smallest time; ties
    are broken by insertion order (FIFO among equal times) so the simulation
    is fully deterministic. Payloads are ints (the engine schedules core
    ids), and the heap lives in three parallel int arrays — time, insertion
    sequence and payload — so {!push} and {!pop} allocate nothing once the
    arrays have grown to the queue's high-water mark. *)

type t

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val push : t -> time:int -> int -> unit
(** [push q ~time x] schedules [x] at [time]. [time] must be
    non-negative. *)

val min_time : t -> int
(** Time of the earliest event, without removing it. Raises
    [Invalid_argument] when the queue is empty. *)

val pop : t -> int
(** Remove the earliest event and return its payload; read its time with
    {!min_time} first. Raises [Invalid_argument] when the queue is empty. *)

val clear : t -> unit
