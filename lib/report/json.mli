(** Minimal JSON document builder, serialiser and reader for
    machine-readable reports ([clear_sim analyze --json], the bench gate
    records). The reader exists so the bench gates can compare a fresh
    record against the previous one. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering with standard string escaping. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for human-facing [--json] output. *)

exception Parse_error of string
(** Raised by {!of_string}; the payload names the byte offset. *)

val of_string : string -> t
(** Parse one JSON document. Numbers without a fraction or exponent read
    back as [Int], all others as [Float], so
    [to_string_pretty (of_string (to_string_pretty j))] reproduces the
    printed text. Raises {!Parse_error} on malformed input. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the first binding of [key]; [None] for a
    missing key or a non-object. *)

val to_float : t -> float option
(** The value of an [Int] or [Float]; [None] otherwise. *)
