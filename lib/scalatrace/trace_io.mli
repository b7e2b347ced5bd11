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

    Corruption is localized to one frame, which is what {!read} exploits
    to recover everything else.  Rank streams are stored
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

val save : Trace.t -> path:string -> unit
(** Write [trace] to [path] in the framed format. *)

val frame_header : kind:string -> payload:string -> string
(** The header line (sans newline) that introduces [payload]; lets tests
    craft frames. *)

(** {1 Reading}

    There is one reader, {!read}.  It recovers everything the damage
    did not touch: frames with failing checksums are dropped, rank
    streams are cut to their longest well-formed prefix, lost sections
    are reconstructed from redundant ones, and the caller gets a typed
    {!report} of what was recovered, what was lost, and every defect
    found.  Strict loading ({!of_string}, {!load}) is the reader's
    zero-damage verdict. *)

type rank_recovery = {
  rr_rank : int;
  rr_events : int;  (** events recovered for this rank *)
  rr_events_lost : int option;
      (** events lost vs. the timing manifest; [None] when the manifest
          itself was lost *)
  rr_truncated : bool;  (** stream cut short or filtered *)
}

type report = {
  frames_seen : int;
  frames_dropped : int;
      (** checksum failures, garbled headers, a missing terminator, and
          an implausible header rank count *)
  ranks_missing : int list;  (** ranks whose stream frame vanished *)
  per_rank : rank_recovery list;
  notes : string list;  (** human-readable recovery decisions *)
  damage : string list;
      (** every defect, as ["line N: ..."], in the order the checks
          run: container defects in file order, then the header, the
          communicator table, the rank-frame count, each rank stream,
          and the timing manifest.  Besides lost data this covers a
          missing frame separator, a rank-frame count the header does
          not declare, a manifest total or per-rank count the streams
          do not match, and an event on an undeclared communicator. *)
}

type unrecoverable = {
  reason : string;  (** why nothing usable remains *)
  damage : string list;  (** as in {!report}; never empty *)
}

type outcome = (Trace.t * report, unrecoverable) result

val read : string -> outcome
(** Tolerant parse of a framed file.  Never raises; input without the
    magic line, or with no usable rank count or rank stream, is
    [Error].  A rank count (from the header, the timing manifest or the
    highest rank-frame index) larger than the text's byte length is
    damage, so a checksum-valid but absurd header cannot make the
    reader allocate per-rank state for it. *)

val is_degraded : report -> bool
(** True when the report records any damage, i.e. exactly when
    {!of_string} raises on the same text. *)

val events_lost : report -> int option
(** Total events lost across ranks; [None] if unknown for any rank. *)

val report_to_string : report -> string

val of_string : ?path:string -> string -> Trace.t
(** {!read}, accepting only an undamaged file: otherwise raises
    {!Format_error} with the first damage, prefixed with [path] when
    given. *)

val load : path:string -> Trace.t
(** {!of_string} on the contents of [path]; errors carry [path].
    @raise Format_error on malformed input.
    @raise Sys_error on I/O failure. *)
