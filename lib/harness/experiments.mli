(** Regeneration of every table and figure of the paper's evaluation.

    [run_suite] executes all four configurations (B = requester-wins,
    P = PowerTM, C = CLEAR/requester-wins, W = CLEAR/PowerTM) over the
    benchmark set once; the [figN] functions derive the corresponding
    paper artefact from that single suite, so a full reproduction costs one
    sweep. *)

type options = {
  cores : int;
  ops_per_thread : int;
  seeds : int list;
  trim : int;
  retry_choices : int list;
      (** the paper sweeps 1..10 and keeps the best per application *)
  sched : Sched.Profile.t;
      (** schedule shape applied to every configuration of the sweep;
          {!Sched.Profile.symmetric} (the default in both option presets)
          reproduces the paper's machine. The profile is part of each
          simulation's {!Suite_cache} shard key, so sweeps under different
          profiles never share cached results. *)
}

val default_options : options
(** Paper-faithful-ish: 32 cores, 10 seeds trimmed by 3, retries 1..10.
    Expensive. *)

val quick_options : options
(** CI-sized: fewer cores/ops/seeds, a short retry sweep. *)

type suite = {
  options : options;
  rows : (string * (string * Run.t) list) list;
      (** per workload, the four presets' measurements keyed by letter *)
}

val run_suite :
  ?jobs:int ->
  ?check:bool ->
  ?stream:bool ->
  ?cache:bool ->
  ?workloads:Machine.Workload.t list ->
  ?progress:(string -> unit) ->
  options ->
  suite
(** Run the whole sweep, flattened into one (config, workload, seed) task
    list executed on [jobs] worker domains (default 1 = sequential). Any job
    count yields bit-identical results: every simulation is self-contained
    and explicitly seeded, and aggregation order does not depend on [jobs].
    With [~check:true] every simulation in the sweep is validated by the
    execution oracle inside the worker; the first violation raises
    {!Run.Check_failed}. Adding [~stream:true] runs those oracles online
    ({!Check.Stream}) with bounded checker memory and an identical verdict. With [~cache:true] each simulation is memoised on
    disk as one {!Suite_cache} shard keyed by (config, workload, seed) and
    the executable digest; only missing shards are simulated, and hits are
    spliced back in task order so partially cached sweeps aggregate
    bit-identically. Callers that validate with the oracle should not also
    pass [~cache:true] — a shard hit would skip validation. *)

val config_of_letter : options -> string -> Machine.Config.t

val letters : string list
(** The four preset letters in presentation order: B, P, C, W. *)

(** {1 Static artefacts} *)

val table1 : unit -> Report.Table.t
(** AR characterisation via the static mutability analysis. *)

val table2 : options -> Report.Table.t
(** System configuration. *)

(** {1 Figures derived from a suite} *)

val fig1 : suite -> Report.Table.t
(** Ratio of first-retry ARs with a stable ≤ ALT footprint (measured on the
    baseline configuration). *)

val fig8 : suite -> Report.Table.t
(** Normalised execution time. *)

val fig8_discovery : suite -> Report.Table.t
(** Companion to Figure 8: share of time spent running aborted
    discoveries. *)

val fig9 : suite -> Report.Table.t
(** Aborts per committed transaction. *)

val fig10 : suite -> Report.Table.t
(** Normalised energy. *)

val fig11 : suite -> Report.Table.t
(** Abort breakdown per type (per committed transaction). *)

val fig12 : suite -> Report.Table.t
(** Commit breakdown per execution mode. *)

val fig13 : suite -> Report.Table.t
(** Commit breakdown per retry count (excluding 0-retry commits). *)

val headline : suite -> Report.Table.t
(** The abstract's headline numbers, paper vs. measured. *)

val storage : unit -> Report.Table.t
(** Per-core storage overhead of the CLEAR structures, paper vs computed. *)

val perf_counters : options -> Machine.Workload.t list -> Simrt.Perfctr.t
(** The engine's hot-path counters summed over every (workload, preset,
    seed) simulation of the options, run sequentially in-process. *)
