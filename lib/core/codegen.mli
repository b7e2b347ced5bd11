(** Trace-to-code generation: the coNCePTuaL backend.

    The generator walks the (aligned, wildcard-free) trace once, emitting
    code per RSD and a FOR loop per PRSD, as in the paper. *)

exception Codegen_error of string
(** Raised on events that cannot be expressed: an unresolved wildcard
    (run {!Wildcard} first) or a peerless point-to-point event. *)

(** [program ?name trace] — the complete generated benchmark: header
    comments, counter reset, body, final LOG of elapsed time.  Computation
    gaps become COMPUTE statements of the RSD's mean gap, point-to-point
    RSDs become SEND/RECEIVE with peers grouped into relative or absolute
    task expressions, collectives go through {!Collective_map}, and
    communicator-management events vanish (all task sets are absolute,
    per paper Section 4.2).

    @param compute_floor_usecs gaps shorter than this are dropped
           (default 0.05us — below measurement noise). *)
val program :
  ?name:string -> ?compute_floor_usecs:float -> Scalatrace.Trace.t ->
  Conceptual.Ast.program
