(** Inter-rank trace merging.

    Folds per-rank compressed traces into one global trace.  Ranks are
    merged in order; each node of an incoming rank trace is aligned
    greedily (bounded lookahead) against the global sequence, and
    compatible nodes are merged: participant sets union, per-rank peers
    accumulate and are generalized to relative ([rank+d]) or absolute
    forms afterwards.  The alignment preserves each rank's event order —
    the property Algorithms 1 and 2 depend on — while keeping the merged
    trace's size proportional to the number of *distinct behaviours*, not
    to the rank count.  Inputs are never mutated; only inserted nodes are
    copied, so the per-rank traces can be merged again. *)

val lookahead : int
(** Alignment window: an incoming node is matched only against the next
    [lookahead] (256) unconsumed global nodes.  The scan is indexed by
    structural hash, so each probe costs O(1) expected instead of
    O(lookahead). *)

val merge :
  nranks:int ->
  comms:(int * Util.Rank_set.t) list ->
  Tnode.t list array ->
  Trace.t

(** [merge_node_lists ~nranks segments] — the greedy alignment alone:
    merge several (per-rank) node lists into one, unioning compatible
    nodes.  Inputs are never mutated; only inserted nodes are copied.
    Peers are left un-generalized. *)
val merge_node_lists : nranks:int -> Tnode.t list list -> Tnode.t list
