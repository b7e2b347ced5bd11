(** ScalaReplay: execute a compressed trace on the simulator.

    Each rank walks its projection of the trace, re-issuing every MPI
    event with computation gaps reconstructed from the per-RSD timing
    summaries.  Used for (a) the Section 5.2 semantic comparison between
    original applications and generated benchmarks, and (b) timed wildcard
    resolution: replaying a trace that still contains [MPI_ANY_SOURCE]
    lets the simulator's arrival-order matching decide the senders, and
    the per-instance matches come back in [wildcard_matches]. *)

exception Replay_error of string

type result = {
  outcome : Mpisim.Engine.outcome;
  wildcard_matches : ((int * int) * int list) list;
      (** per wildcard receive RSD and receiving rank, the matched world
          senders in instance order; keyed as {!Scalatrace.Tnode.leaf_index}
          documents *)
}

(** How computation gaps are reconstructed from the per-RSD timing
    summaries: the histogram mean for every instance (deterministic,
    total-time preserving — the default and what generated benchmarks do),
    or per-instance draws from the histogram's distribution, seeded (adds
    back the variability that summarization flattens). *)
type compute_mode = Mean | Draw of int

(** [run trace] — replay and return the outcome.

    @param net network model (default bluegene_l)
    @param hooks extra interposition clients
    @param compute_scale multiply reconstructed compute gaps (default 1.0)
    @param compute reconstruction mode (default [Mean])
    @param fault seeded fault-injection plan forwarded to the simulator
    @param max_events / max_virtual_time watchdog budgets forwarded to the
      simulator (a wedged replay raises {!Mpisim.Engine.Stalled})
    @param coll_alg collective algorithm selection forwarded to the
      simulator (default [`Monolithic])
    @param obs observability sink forwarded to the simulator *)
val run :
  ?net:Mpisim.Netmodel.t ->
  ?hooks:Mpisim.Hooks.t list ->
  ?fault:Mpisim.Fault.t ->
  ?max_events:int ->
  ?max_virtual_time:float ->
  ?coll_alg:Mpisim.Coll_alg.t ->
  ?obs:Obs.Sink.t ->
  ?compute_scale:float ->
  ?compute:compute_mode ->
  Scalatrace.Trace.t ->
  result
