(** Tolerant loading of damaged trace files.

    Where {!Trace_io.load} is strict — one flipped byte and the whole
    file is rejected — this loader recovers everything the damage did
    not touch: frames with failing checksums are dropped, rank streams
    are cut to their longest well-formed prefix, lost sections are
    reconstructed from redundant ones, and the caller gets a typed
    {!report} of exactly what was recovered and what was lost.  Only
    when no usable content remains does it return [Error].

    Recovery is per frame of the framed container; input without its
    magic line is [Error].  A rank count (from the header, the timing
    manifest or the highest rank-frame index) larger than the file's
    byte length is treated as damage, so a checksum-valid but absurd
    header cannot make the loader allocate per-rank state for it. *)

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
}

type outcome = (Trace.t * report, string) result

(** True when anything at all was lost (the trace differs from what was
    written). *)
val is_degraded : report -> bool

(** Total events lost across ranks; [None] if unknown for any rank. *)
val events_lost : report -> int option

val report_to_string : report -> string

val of_string : string -> outcome
val load : path:string -> outcome
