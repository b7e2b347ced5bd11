(** Trace (de)serialization.

    The on-disk format is the equivalent of ScalaTrace's trace files,
    which is what gets handed to the benchmark generator in the paper's
    workflow (Figure 1): the inter-node-compressed trace itself, one
    RSD/PRSD tree whose nodes carry participant rank lists.  For SPMD
    codes its size stays nearly flat as the rank count grows.

    It is a framed container (magic line [scalatrace-frames 3]):
    length-prefixed sections, each carrying a CRC-32 over its payload —
    a header (the rank count), the communicator table, chunks of
    consecutive top-level nodes of {!Trace.nodes}, and a timing manifest
    (the event total, the chunk count, and every rank's event count,
    written as rank intervals grouped by count).  Payloads use a
    line-oriented vocabulary ([loop N] / [event ...] / [end]) that stores
    the full RSD/PRSD structure, rank sets, peers (relative and mapped
    peers as they are), sizes, tags, and the timing summaries
    (all five fields of each {!Util.Histogram}: count/sum/min/max/first).

    Loading rebuilds the tree as written; nothing is re-merged.
    [of_string (to_framed t)] yields a trace whose structure, rank sets,
    peers and timing means equal [t]'s, and re-saving it reproduces the
    same bytes. *)

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
    did not touch: frames with failing checksums are dropped, the chunks
    load in order up to the first one lost or malformed (a malformed
    chunk keeps its longest well-formed prefix), lost sections are
    reconstructed from redundant ones, and the caller gets a typed
    {!report} of what was recovered, what was lost, and every defect
    found.  Since chunks hold consecutive nodes of the merged trace, a
    cut keeps a prefix of every rank's events.  Strict loading
    ({!of_string}, {!load}) is the reader's zero-damage verdict. *)

val max_ranks : int
(** The largest rank count a file may declare; a larger one is damage.
    The reader allocates nothing sized by a declared count: per-rank
    state follows the rank intervals the file spells out. *)

type rank_recovery = {
  rr_ranks : Util.Rank_set.t;  (** the ranks sharing this outcome *)
  rr_events : int;  (** events recovered on each of them *)
  rr_events_lost : int option;
      (** events lost on each of them vs. the timing manifest; [None]
          when the manifest was lost or does not list them once *)
}

type report = {
  frames_seen : int;
  frames_dropped : int;
      (** checksum failures, garbled headers, a missing terminator, and
          a header rank count above {!max_ranks} *)
  ranks_missing : int;
      (** ranks with no event recovered that were not known to have none *)
  per_rank : rank_recovery list;
      (** every rank, grouped by outcome, in ascending order of the
          groups' lowest ranks *)
  notes : string list;  (** human-readable recovery decisions *)
  damage : string list;
      (** every defect, as ["line N: ..."], in the order the checks
          run: container defects in file order, then the header, the
          communicator table, each chunk in order, and the timing
          manifest.  Besides lost data this covers a missing frame
          separator, a chunk the manifest does not declare, a manifest
          total or per-rank count the chunks do not match, and an event
          on an undeclared communicator. *)
}

type unrecoverable = {
  reason : string;  (** why nothing usable remains *)
  damage : string list;  (** as in {!report}; never empty *)
}

type outcome = (Trace.t * report, unrecoverable) result

val read : string -> outcome
(** Tolerant parse of a framed file.  Never raises; input without the
    magic line (including every earlier format version), with no usable
    rank count, or with damage and no chunk to load, is [Error]. *)

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
