(** Trace (de)serialization.

    The on-disk format is the equivalent of ScalaTrace's trace files,
    which is what gets handed to the benchmark generator in the paper's
    workflow (Figure 1).  It is a framed container (magic line
    [scalatrace-frames 2]): length-prefixed sections (header /
    communicator table / one RSD stream per rank / timing manifest),
    each carrying a CRC-32 over its payload.  Payloads use a
    line-oriented vocabulary ([loop N] / [event ...] / [end]) that stores
    the full RSD/PRSD structure, peers, sizes, tags, and the timing
    summaries (count/sum/min/max/first of each histogram; the bucket
    detail is dropped, which only affects quantile reconstruction, not
    the means that drive generation and replay).

    Corruption is localized to one frame, which is what the {!Salvage}
    loader exploits to recover everything else.  Rank streams are stored
    as singleton-participant projections with concrete peers (the
    tracer's own collection shape) and re-merged on load with the
    production {!Merge} path.

    [of_string (to_framed t)] yields a trace whose structure,
    projections, and timing means equal [t]'s. *)

exception Format_error of string
(** Parse failure; the message includes the offending line number, and
    the file path when the text came from a file. *)

val to_framed : Trace.t -> string
(** Serialize to the framed container. *)

val of_string : ?path:string -> string -> Trace.t
(** Strict parse: a missing magic line, any malformed frame header,
    checksum mismatch, missing section, a header rank count that
    disagrees with the rank frames present, or a manifest disagreement
    raises {!Format_error}.  [path], when given, prefixes error
    messages.  Use {!Salvage} for tolerant loading. *)

val save : Trace.t -> path:string -> unit
(** Write [trace] to [path] in the framed format. *)

val load : path:string -> Trace.t
(** {!of_string} on the contents of [path]; errors carry [path].
    @raise Format_error on malformed input.
    @raise Sys_error on I/O failure. *)

(** {1 Building blocks exposed for the {!Salvage} loader}

    These are not a stable user-facing API; they exist so the tolerant
    loader shares one grammar with the strict one. *)

val is_framed : string -> bool
(** True when [text] starts with the magic line. *)

val frame_header : kind:string -> payload:string -> string
(** The header line (sans newline) that introduces [payload]. *)

val parse_nodes_prefix : string list -> Tnode.t list * bool * string option
(** Longest well-formed prefix of a node stream: completed top-level
    nodes, whether the stream was cut short (parse error or unclosed
    loop), and the first error message if any.  Never raises. *)

val parse_header_payload : ?src:string -> string -> int
(** [nranks] from a header-frame payload. @raise Format_error if bad. *)

val parse_comms_payload :
  ?src:string -> string -> (int * Util.Rank_set.t) list
(** Communicator table from a comms-frame payload.
    @raise Format_error if bad. *)

val parse_timing_payload : string -> int option * (int * int) list
(** Best-effort read of a timing manifest: total event count (if
    present) and per-rank expected event counts.  Never raises. *)

val rank_of_kind : string -> int option
(** [rank_of_kind "rank:3"] is [Some 3]; [None] for other kinds. *)

val assemble :
  nranks:int ->
  comms:(int * Util.Rank_set.t) list ->
  Tnode.t list array ->
  Trace.t
(** Re-merge per-rank streams into a global trace (the load-time inverse
    of the per-rank narrowing done on save). *)
