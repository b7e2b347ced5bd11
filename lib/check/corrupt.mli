(** Corruption-robustness campaigns over the framed trace format.

    Where {!Campaign} fuzzes the pipeline's semantics with random
    programs, this module fuzzes its ingestion with damaged trace files:
    each case takes a known-good framed trace from a registry
    application, applies a seeded mutation (bit flip, truncation at a
    random offset or at a frame boundary, whole-chunk-frame ablation,
    garbled frame header), and checks the robustness contract.  Each
    baseline also gets four checksum-valid edits no CRC can see: the
    header frame's separator overwritten, an extra chunk frame beyond
    the declared count, the manifest's [events] total changed, and one
    event moved to an undeclared communicator.  The contract:

    - no mutation may crash or hang the loader or the pipeline — every
      outcome must be typed (clean strict load, a
      {!Scalatrace.Trace_io.report}, or a typed
      {!Benchgen.Pipeline.gen_error});
    - {!Scalatrace.Trace_io.of_string} raises exactly when
      {!Scalatrace.Trace_io.read} returns [Error] or a degraded report;
    - under [`Best_effort] recovery, every salvaged trace with at least
      two surviving ranks must still yield a benchmark that parses and
      replays (bounded by a watchdog).

    All mutations are deterministic functions of the seed; a reported
    violation replays exactly. *)

type outcome_kind =
  | O_strict_ok  (** the damage missed everything the reader checks *)
  | O_salvaged_generated  (** salvage + best-effort pipeline succeeded *)
  | O_salvaged_error of string  (** salvaged, but the pipeline refused *)
  | O_unrecoverable  (** the reader itself gave up (typed) *)

type violation = {
  v_seed : int;  (** 0 for boundary-sweep and checksum-valid cases *)
  v_app : string;
  v_mutation : string;  (** e.g. ["bit-flip@1234"], replayable *)
  v_what : string;  (** which contract clause broke, and how *)
}

type config = {
  seed_start : int;
  seeds : int;  (** number of random-mutation cases *)
  apps : string list;  (** registry apps to draw baselines from *)
  nranks : int;  (** requested rank count (fitted per app) *)
  sweep_boundaries : bool;
      (** additionally truncate each baseline at every frame boundary *)
  replay_max_events : int;  (** watchdog for the replay check *)
  log : string -> unit;  (** violation log line sink *)
}

(** The four checksum-valid edits of a clean framed trace, as
    [(mutation, bytes)]: ["bad-separator"], ["extra-chunk-frame"],
    ["manifest-total"] and ["undeclared-comm"] (the last chunk's first
    event on communicator 0 moved to one past the highest declared
    communicator). *)
val crafted : string -> (string * string) list

(** 100 seeds over ring/stencil2d/butterfly/cg at 8 ranks, with the
    boundary sweep on. *)
val default : config

type summary = {
  cases : int;
  strict_ok : int;
  salvaged : int;  (** the reader recovered a damaged file *)
  unrecoverable : int;
  generated : int;  (** best-effort pipeline produced a benchmark *)
  replayed : int;  (** the benchmark also parsed and replayed *)
  violations : violation list;  (** empty = contract held everywhere *)
  metrics : Obs.Metrics.t;
      (** [corrupt.cases{outcome}] and [corrupt.violations] counters *)
}

val run : config -> summary
