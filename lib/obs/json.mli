(** A minimal JSON value: enough to emit the observability artifacts
    (Chrome trace, metrics JSONL) deterministically and to re-parse them
    in self-checks.  No external JSON library exists in the tree; every
    exporter and validator shares this one implementation. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** Deterministic compact rendering: object members keep their list
    order, strings are escaped per RFC 8259.  Integral numbers in
    (-1e15, 1e15) print with no fraction or exponent, everything else
    with ["%.6g"]; the mapping is a pure function of the double, so
    identical runs serialize byte-identically. *)
val to_string : t -> string

val to_buffer : Buffer.t -> t -> unit

(** @raise Parse_error on malformed input (with an offset). *)
val parse : string -> t

(** [member k j] — field [k] of object [j]; [None] when absent or [j] is
    not an object. *)
val member : string -> t -> t option
