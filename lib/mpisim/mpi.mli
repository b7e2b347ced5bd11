(** The MPI-like API applications are written against.

    Every function must be called from inside a rank fiber running under
    {!Engine.run} (re-exported here as {!run}).  Ranks in arguments and
    results are communicator-local; [?comm] defaults to the world
    communicator.  [?site] attaches a call-site signature used by the
    tracer's loop compression and by the benchmark generator's collective
    alignment; pass [~site:(Util.Callsite.make __POS__)] (or use the
    [site] helper) at distinct source locations. *)

type ctx = Engine.ctx = { rank : int; nranks : int; world : Comm.t }

(** Alias for [Util.Callsite.make]: [site __POS__] or
    [site ~label:"exchange" __POS__]. *)
val site : ?label:string -> string * int * int * int -> Util.Callsite.t

val run :
  ?hooks:Hooks.t list ->
  ?net:Netmodel.t ->
  ?fault:Fault.t ->
  ?max_events:int ->
  ?max_virtual_time:float ->
  ?coll_alg:Coll_alg.t ->
  ?obs:Obs.Sink.t ->
  nranks:int ->
  (ctx -> unit) ->
  Engine.outcome

(** {1 Point-to-point} *)

val send :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?tag:int -> ctx -> dst:int -> bytes:int -> unit

val isend :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?tag:int -> ctx -> dst:int -> bytes:int ->
  Call.request

val recv :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?tag:Call.tag_match -> ctx ->
  src:Call.source -> bytes:int -> Call.status

val irecv :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?tag:Call.tag_match -> ctx ->
  src:Call.source -> bytes:int -> Call.request

val wait : ?site:Util.Callsite.t -> ctx -> Call.request -> Call.status
val waitall : ?site:Util.Callsite.t -> ctx -> Call.request list -> Call.status array

(** [sendrecv] posts the receive, sends, then waits for both — the usual
    deadlock-free exchange. *)
val sendrecv :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?tag:int -> ctx ->
  dst:int -> send_bytes:int -> src:Call.source -> recv_bytes:int -> Call.status

(** {1 Collectives} *)

val barrier : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> unit
val bcast : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> root:int -> bytes:int -> unit
val reduce : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> root:int -> bytes:int -> unit
val allreduce : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> bytes:int -> unit

val gather :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> root:int -> bytes_per_rank:int -> unit

val gatherv :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> root:int -> bytes_from:int array -> unit

val allgather : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> bytes_per_rank:int -> unit
val allgatherv : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> bytes_from:int array -> unit

val scatter :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> root:int -> bytes_per_rank:int -> unit

val scatterv :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> root:int -> bytes_to:int array -> unit

val alltoall : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> bytes_per_pair:int -> unit
val alltoallv : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> bytes_to:int array -> unit

val reduce_scatter :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> bytes_per_rank:int array -> unit

(** {1 Neighborhood collectives}

    Sparse collectives over per-rank neighbor lists.  [?parts] is the
    declared participant set (sorted communicator-local ranks; default
    the whole communicator): every rank in it must make the call, and
    the operation synchronizes exactly that set — not the whole
    communicator.  [neighbors] is this caller's sorted
    communicator-local neighbor list, a subset of the participant set
    without the caller.  When every participant declares the same
    rank-relative offsets (a stencil), the engine prices the exchange
    with a compact message-combining round schedule (see {!Coll_alg}). *)

val neighbor_alltoall :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?parts:int array -> ctx ->
  neighbors:int array -> bytes_per_neighbor:int -> unit

val neighbor_allgather :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ?parts:int array -> ctx ->
  neighbors:int array -> bytes:int -> unit

(** {1 Communicator management} *)

val comm_split :
  ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> color:int -> key:int -> Comm.t

val comm_dup : ?site:Util.Callsite.t -> ?comm:Comm.t -> ctx -> Comm.t

(** {1 Environment} *)

(** [compute ctx seconds] — local work: advances this rank's clock. *)
val compute : ?site:Util.Callsite.t -> ctx -> float -> unit

val wtime : ctx -> float
val finalize : ?site:Util.Callsite.t -> ctx -> unit

(** [comm_rank comm ctx] / [comm_size comm] — local rank of the caller and
    size. @raise Engine.Mpi_error if the caller is not a member. *)
val comm_rank : Comm.t -> ctx -> int

val comm_size : Comm.t -> int
