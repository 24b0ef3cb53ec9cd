(** The scheduler-scenario sweep: every registered {!Sched.Scenarios}
    profile x the four presets x three seeds, aggregated per (scenario,
    preset) and compared against the symmetric baseline. [clear_sim sched]
    prints it; the sched bench gate checks it. *)

val seeds : int list

val material_delta : float
(** A scenario shifts a preset's retry mix materially when its one-retry
    or fallback share moves by at least this much (absolute) from the
    symmetric baseline's. *)

type t

val run :
  jobs:int -> check:bool -> config:(string -> Machine.Config.t) -> Machine.Workload.t -> t
(** Run the sweep on [jobs] domains, bit-identically at any [jobs].
    [config letter] is the preset's base configuration; the seed and the
    schedule profile are set per simulation. With [check] the first oracle
    violation raises {!Run.Check_failed}. *)

val runs : t -> ((string * string * int) * Machine.Stats.t) list
(** Every (scenario, preset, seed) simulation, in sweep order. *)

val materially_different : t -> int
(** Non-symmetric scenarios that shift at least one preset materially. *)

val to_json : t -> Report.Json.t
val table : t -> Report.Table.t
