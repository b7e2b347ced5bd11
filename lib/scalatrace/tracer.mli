(** The ScalaTrace collection layer.

    A {!Mpisim.Hooks.t} client that records every MPI call of every rank
    into per-rank compressed traces (intra-rank loop compression happens
    on the fly), measures inter-call computation time, and captures the
    membership of every communicator created during the run.  At
    [MPI_Finalize] time — i.e., after {!Mpisim.Mpi.run} returns — call
    {!finish} to perform the inter-rank merge and obtain the global
    {!Trace.t}. *)

type t

(** [create ?window ~nranks ()] — [window] bounds the loop-body length
    each rank's compressor can detect ({!Compress.create}, default 64). *)
val create : ?window:int -> nranks:int -> unit -> t

val hook : t -> Mpisim.Hooks.t

(** Per-rank compressed traces (chronological), before inter-rank merging. *)
val local_traces : t -> Tnode.t list array

(** Inter-rank merge (the work the paper's ScalaTrace does inside the
    [MPI_Finalize] wrapper): returns the global trace.  Per-rank traces
    are left untouched, so [finish] can run more than once, and
    {!local_traces} can feed a second merge implementation for
    differential testing. *)
val finish : t -> Trace.t

(** [trace_run ?net ~nranks program] — convenience: run [program] under
    a tracer with the default compression window and return the global
    trace together with the run outcome.  [?fault] and the watchdog budgets are forwarded to
    {!Mpisim.Mpi.run}, so applications can be traced under perturbed
    conditions and runaway programs abort with a diagnostic. *)
val trace_run :
  ?net:Mpisim.Netmodel.t ->
  ?fault:Mpisim.Fault.t ->
  ?max_events:int ->
  ?max_virtual_time:float ->
  ?coll_alg:Mpisim.Coll_alg.t ->
  ?obs:Obs.Sink.t ->
  ?extra_hooks:Mpisim.Hooks.t list ->
  nranks:int ->
  (Mpisim.Mpi.ctx -> unit) ->
  Trace.t * Mpisim.Engine.outcome
