(** On-disk memoisation of suite sweeps, sharded per simulation.

    One shard lives at [_cache/shard-<digest>.bin] per (configuration,
    workload, seed) simulation; the digest covers the fully seeded
    configuration, the workload name, the seed and the executable's own
    digest — any rebuild or parameter change misses, and editing one
    workload only invalidates that workload's shards (the digest of every
    other (config, workload, seed) triple is unchanged once the rebuilt
    executable writes them afresh; ROADMAP "sharded suite cache").

    Entries are written as two Marshal items: the build id (a plain string,
    safe to read back from any build) followed by the {!Machine.Stats.t}.
    {!prune_stale} deletes entries left behind by previous builds, so the
    directory never accumulates unloadable files; legacy whole-suite
    [suite-*.bin] entries are cleaned up by the same sweep. *)

val dir : string
(** ["_cache"], relative to the working directory. *)

val build_id : unit -> string
(** Hex digest of the running executable; memoised. *)

val shard_path : Machine.Config.t -> workload:string -> seed:int -> string
(** Shard path for one simulation ([seed] is applied to the configuration
    before digesting, so callers may pass the unseeded sweep config). *)

val cacheable : Machine.Config.t -> bool
(** [false] for open-system configurations ([openloop] set): a shard holds
    only a {!Machine.Stats.t}, so a hit would silently drop the
    request-lifecycle data the run exists to produce. Such configurations
    bypass the cache in both directions — {!load_shard} misses and
    {!save_shard} is a no-op. *)

val load_shard : Machine.Config.t -> workload:string -> seed:int -> Machine.Stats.t option
(** [None] when the shard is missing, unreadable, written by a different
    build, or the configuration is not {!cacheable}. *)

val save_shard : Machine.Config.t -> workload:string -> seed:int -> Machine.Stats.t -> unit
(** Atomic write (temp file + rename); no-op when not {!cacheable}. *)

val prune_stale : unit -> unit
(** Delete every cache entry whose embedded build id differs from the
    current executable's. *)

val clear : unit -> int
(** Delete every cache entry in {!dir}; returns how many were removed. *)
