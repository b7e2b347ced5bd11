(** Algorithm 2 — resolving wildcard receives (paper Section 4.4).

    Replaces every [MPI_ANY_SOURCE] in the trace with a concrete sender,
    chosen by simulating the send/receive matching over a per-rank
    traversal: each rank keeps a list of its unmatched point-to-point
    operations ([L1] in the paper) and every operation arriving at a rank
    is looked up against the pending operations destined for it ([L2]).
    A wildcard receive is pinned to the first sender that matches it; the
    trace structure is otherwise unchanged (peers are rewritten in place,
    to an absolute rank or a per-rank map).

    The traversal blocks at blocking sends/receives, waits, and
    collectives (tracked on {!Util.Rendezvous}, as in {!Align}), switching
    to the peer that can unblock it.  Resolutions are keyed by
    {!Scalatrace.Tnode.leaf_index}, built once per run and shared by the
    traversal and the rebuild; the timed replay numbers the same leaves.  A transfer
    log (the paper's [L3]/unblock events) detects cyclic dependencies: if
    the traversal returns to a node still blocked on the same event with
    no unblocking in between, a *potential deadlock* of the original
    application has been found — a sufficient (not necessary) condition —
    and {!Potential_deadlock} is raised rather than hanging.

    Complexity O(p·e); gate the pass with the O(r)
    {!Scalatrace.Trace.has_wildcards} pre-check. *)

exception Potential_deadlock of string

exception Wildcard_error of string
(** Malformed trace: e.g. a send whose destination cannot be resolved. *)

(** How to choose the concrete sender for each wildcard instance:

    - [`Traversal] — the paper's untimed Algorithm 2 exactly.  Sufficient
      deadlock detection included; however, for deeply pipelined wavefront
      codes the untimed matching can occasionally produce an assignment no
      real execution could realize (one neighbor's future-iteration sends
      consumed early), yielding a generated benchmark that hangs.
    - [`Timed] — replay the trace on the simulator and record which sender
      each wildcard matched: the assignment is an actual execution, hence
      always valid.
    - [`Auto] (default) — run [`Traversal]; validate its output by
      replaying the resolved trace; fall back to [`Timed] when validation
      fails or when the untimed traversal itself wedges on a program that
      a real execution completes (the fallback replay re-raises
      {!Potential_deadlock} when the hazard is genuine).  Use
      [`Traversal] directly for the paper's exact Figure 5 behaviour,
      which reports rather than resolves. *)
type strategy = [ `Traversal | `Timed | `Auto ]

(** [?on_fallback] is invoked (with a human-readable reason) each time the
    [`Auto] strategy abandons the untimed traversal for the timed replay —
    callers surface this as a degradation warning rather than a failure. *)
val run :
  ?strategy:strategy -> ?net:Mpisim.Netmodel.t ->
  ?on_fallback:(string -> unit) -> Scalatrace.Trace.t ->
  Scalatrace.Trace.t

(** Run the pass only when the O(r) pre-check finds wildcard receives;
    returns the trace and whether the pass ran. *)
val resolve_if_needed :
  ?strategy:strategy -> ?net:Mpisim.Netmodel.t ->
  ?on_fallback:(string -> unit) -> Scalatrace.Trace.t ->
  Scalatrace.Trace.t * bool
