(** The bench gates of [dune build @ci]: [bench/main.exe gate NAME...] with
    NAME among suite, check, sched, paper, streamcheck, openloop, or all.
    Each gate calls the simulator library in-process and measures a record:
    a common header (gate, host cores, parallel jobs [min 4 cores], OCaml
    version, gate wall and CPU ms) plus its own fields. A failed hard gate
    prints the gate name, the measured value and the limit, and exits 1. A
    metric that moved by more than 10% (25% for the paper cold CPU time)
    from the previous [BENCH_<name>.json] in the working directory prints a
    [::warning] line and never fails. The record then overwrites that file,
    except under dune ([INSIDE_DUNE] set), where the committed records are
    the rules' dependencies and fresh ones go to [gate-out/]. *)

val hard_gates : (string * (Report.Json.t -> string option) list) list
(** Per gate, its hard gates as predicates over the gate's record: [None]
    when it holds, else the failure message naming measured value and limit. *)

val drift_warnings :
  gate:string -> limit_pct:float -> previous:(string * float) list -> (string * float) list ->
  string list
(** The [::warning] lines for every metric that moved by more than
    [limit_pct] percent from a positive previous value. *)

val main : string list -> unit
(** Run the named gates in order ([all] or none: every gate); an unknown
    name exits 2 before any gate runs. *)
