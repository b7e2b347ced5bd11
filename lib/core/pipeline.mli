(** The unified benchmark-generation pipeline.

    One configuration record and one entry point: every knob lives in
    {!config}, every input shape in {!source}, and every product in
    {!artifact}.

    The pipeline is instrumented: each stage ([trace] → [align] →
    [wildcard] → [codegen]; [replay] and [compare] under {!validate})
    opens a span on the configured {!Obs.Sink.t}, the simulator emits
    per-rank queue-depth samples on its own track, and per-run aggregates
    accumulate in the artifact's {!Obs.Metrics.t} registry.  Stage spans
    are timestamped by a monotonic per-run tick clock and engine events by
    virtual time, so with a fixed seed two runs produce byte-identical
    exports; with {!Obs.Sink.nil} (the default) instrumentation costs one
    flag test per observation point. *)

(** {1 Configuration} *)

(** A deliberate pipeline defect, for differential-fuzzing self-tests
    ({!page-index} lib/check): each constructor breaks one fidelity
    property, so the oracle and shrinker can be validated against a
    known-bad pipeline.  Production code never sets one. *)
type defect =
  | D_skip_wildcard
      (** skip Algorithm 2: [ANY_SOURCE] receives reach codegen unresolved
          and fail with {!gen_error.E_codegen} *)
  | D_scale_bytes of int
      (** multiply every point-to-point payload (byte-volume infidelity) *)
  | D_drop_tail
      (** drop the trace's last communication node (count infidelity) *)

val defect_to_string : defect -> string

(** Parse a CLI spelling: ["skip-wildcard"], ["scale-bytes"] (factor 2),
    ["scale-bytes:<k>"], ["drop-tail"]. *)
val defect_of_string : string -> (defect, string) result

(** How much damage the pipeline tolerates in its input trace:
    - [`Strict] — any corruption or truncation is an error (the default);
    - [`Salvage] — load what survives of a damaged file (with a
      {!warning.W_salvaged} report), but refuse to generate if the
      surviving trace cannot be fully aligned;
    - [`Best_effort] — additionally cut a truncated trace back to its
      last globally consistent collective frontier so a runnable (if
      shorter) benchmark is still generated. *)
type recovery = [ `Strict | `Salvage | `Best_effort ]

val recovery_to_string : recovery -> string

(** Parse a CLI spelling: ["strict"], ["salvage"], ["best-effort"]. *)
val recovery_of_string : string -> (recovery, string) result

type config = {
  name : string option;  (** benchmark name in the generated program *)
  net : Mpisim.Netmodel.t option;
      (** network model for tracing / validation runs (default
          [Netmodel.bluegene_l]) *)
  fault : Mpisim.Fault.t option;  (** seeded fault-injection plan *)
  max_events : int option;  (** simulator watchdog budget *)
  max_virtual_time : float option;  (** simulator watchdog budget, seconds *)
  strategy : Wildcard.strategy option;
      (** wildcard-resolution strategy (default [`Auto]) *)
  compute_floor_usecs : float option;
      (** drop compute statements shorter than this *)
  obs : Obs.Sink.t;  (** observability sink (default {!Obs.Sink.nil}) *)
  defect : defect option;
      (** deliberately broken pipeline for fuzzing self-tests (default
          [None] — the correct pipeline) *)
  recovery : recovery;
      (** damage tolerance for input traces (default [`Strict]) *)
  coll_alg : Mpisim.Coll_alg.t;
      (** collective algorithm selection for every simulator run the
          pipeline performs (tracing, replay, validation) — a concrete
          {!Mpisim.Coll_alg.alg} or [`Auto].  Default [`Monolithic], the
          analytic reference model, which keeps same-seed artifacts
          byte-identical with earlier releases. *)
}

(** All-defaults configuration; build variants with
    [{ default with ... }]. *)
val default : config

(** {1 Inputs and outputs} *)

type source =
  | From_trace of Scalatrace.Trace.t  (** an already-collected trace *)
  | From_file of string  (** path to a serialized trace *)
  | From_app of { nranks : int; app : Mpisim.Mpi.ctx -> unit }
      (** trace this application first (under [config.net] / [fault] /
          watchdogs), then generate *)

type report = {
  program : Conceptual.Ast.program;
  text : string;  (** pretty-printed .ncptl source *)
  aligned : bool;  (** Algorithm 1 ran *)
  resolved : bool;  (** Algorithm 2 ran *)
  input_rsds : int;
  final_rsds : int;  (** RSDs after the rewriting passes *)
  statements : int;  (** statements in the generated program *)
}

type warning =
  | W_aligned of { input_rsds : int; output_rsds : int }
      (** Algorithm 1 merged partial-participant collectives *)
  | W_wildcard_resolved  (** Algorithm 2 pinned wildcard receives *)
  | W_wildcard_fallback of string
      (** the [`Auto] strategy abandoned the untimed traversal *)
  | W_salvaged of Scalatrace.Trace_io.report
      (** the trace file was damaged; generation continued from what the
          tolerant reader ({!Scalatrace.Trace_io.read}) recovered *)
  | W_truncated_frontier of { anchors : int; dropped_events : int }
      (** best-effort mode cut the benchmark at the last globally
          consistent world-collective frontier *)
  | W_missing_participants of { missing : int list; detail : string }
      (** a collective could never complete: [missing] ranks' streams
          ended before arriving; [detail] is the formatted wait-for
          graph *)

type gen_error =
  | E_potential_deadlock of string  (** paper Figure 5: input can hang *)
  | E_align of string  (** collective misuse in the trace *)
  | E_wildcard of string  (** malformed point-to-point structure *)
  | E_trace_format of string  (** unparseable trace file *)
  | E_io of string  (** file-system failure *)
  | E_codegen of string
      (** code generation rejected the trace (e.g. unresolved wildcards
          under {!defect.D_skip_wildcard}) *)
  | E_unrecoverable_trace of string
      (** nothing usable survived the damage, or the surviving trace
          cannot be aligned and [config.recovery] forbids truncation *)

val warning_to_string : warning -> string
val error_to_string : gen_error -> string

(** Stable machine-readable tags for the typed diagnostics — a wire
    contract shared by serve-mode JSON responses and metrics labels
    ([pipeline.warnings{kind}], [serve.outcomes{class}]).  Tags are
    never renamed, only added: clients may triage on them without
    parsing prose.  Warnings: ["aligned"], ["wildcard_resolved"],
    ["wildcard_fallback"], ["salvaged"], ["truncated_frontier"],
    ["missing_participants"].  Errors: ["potential_deadlock"],
    ["align"], ["wildcard"], ["trace_format"], ["io"], ["codegen"],
    ["unrecoverable_trace"]. *)
val warning_tag : warning -> string

val error_tag : gen_error -> string

type artifact = {
  report : report;
  resolved_trace : Scalatrace.Trace.t;
      (** the trace after both rewriting passes — what [report.program]
          was generated from; downstream consumers (C code generation,
          extrapolation, replay) start here instead of re-running the
          passes *)
  trace_outcome : Mpisim.Engine.outcome option;
      (** the tracing run's outcome ([From_app] only) *)
  metrics : Obs.Metrics.t;
      (** per-run aggregates: trace/program shape gauges, simulator and
          per-operation mpiP counters ([From_app]), warning counts;
          {!validate} appends fidelity figures *)
}

(** {1 Running} *)

(** [run config source] executes the pipeline: acquire the trace (simulate
    and trace, load, or take as given), align collectives if needed,
    resolve wildcard receives if needed, generate coNCePTuaL code.
    Recoverable conditions come back as {!warning}s alongside the
    artifact; expected failures as typed {!gen_error}s — no exception
    escapes for any malformed-but-parseable input.

    For [From_file], [config.name] defaults to the path. *)
val run : config -> source -> (artifact * warning list, gen_error) result

(** {1 Validation} *)

type fidelity = {
  f_original : Mpisim.Engine.outcome;
      (** original application under [config]'s conditions *)
  f_generated : Mpisim.Engine.outcome;  (** generated benchmark, ditto *)
  f_error_pct : float;
      (** signed timing error of the generated benchmark vs the
          original *)
  f_mpip_diff : string list;
      (** mpiP profile discrepancies; empty = the generated benchmark
          reproduces the original's per-operation call counts and byte
          volumes exactly (the paper's Section 5.2 check) *)
}

(** [validate config ~nranks app artifact] — run the generated benchmark
    ([replay] span) and the original application ([compare] span) under
    identical conditions, both profiled by {!Mpip}, and report timing and
    semantic fidelity.  Fidelity figures are also appended to
    [artifact.metrics].  [artifact] must have been produced from [app] at
    the same rank count. *)
val validate :
  config -> nranks:int -> (Mpisim.Mpi.ctx -> unit) -> artifact -> fidelity
