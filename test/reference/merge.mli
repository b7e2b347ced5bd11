(** Linear-scan inter-rank merge: the differential oracle for
    {!Scalatrace.Merge.merge}, with the same window
    ({!Scalatrace.Merge.lookahead}), generalization and final
    compression. *)

val merge :
  nranks:int ->
  comms:(int * Util.Rank_set.t) list ->
  Scalatrace.Tnode.t list array ->
  Scalatrace.Trace.t
