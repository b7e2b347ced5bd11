(** Trace events: one compressed record per MPI call instance.

    An event is the payload of an RSD.  During per-rank collection the
    participant set is a singleton and peers are absolute world ranks;
    inter-node merging (see {!Merge}) unions participant sets and
    generalizes peers to relative or per-rank forms, which is what keeps
    trace size sublinear in the rank count. *)

type peer =
  | P_none  (** no peer (waits, non-rooted collectives) *)
  | P_abs of int  (** constant world rank *)
  | P_rel of int  (** world rank [(self + d) mod nranks] *)
  | P_any  (** MPI_ANY_SOURCE *)
  | P_map of (int * int) list
      (** explicit per-rank peers [(world rank, world peer)], sorted *)

type kind =
  | E_send
  | E_isend
  | E_recv
  | E_irecv
  | E_wait
  | E_waitall of int  (** number of requests *)
  | E_barrier
  | E_bcast
  | E_reduce
  | E_allreduce
  | E_gather
  | E_gatherv
  | E_allgather
  | E_allgatherv
  | E_scatter
  | E_scatterv
  | E_alltoall
  | E_alltoallv
  | E_reduce_scatter
  | E_neighbor_alltoall  (** sparse exchange over a neighbor list *)
  | E_neighbor_allgather  (** sparse gather over a neighbor list *)
  | E_comm_split
  | E_comm_dup
  | E_finalize

type t = {
  site : Util.Callsite.t;
  kind : kind;
  mutable peer : peer;
  bytes : int;  (** canonical payload: p2p message size, per-rank collective
                    size, or total for v-collectives; per-neighbor size
                    for neighborhood collectives *)
  vec : int array option;
      (** exact per-rank sizes of v-collectives; for neighborhood
          collectives, the sorted relative neighbor offsets in
          participant-position space (identical on every rank of a
          stencil, which keeps RSD merging exact) *)
  tag : int;  (** p2p tag; [-1] encodes MPI_ANY_TAG; neighbor degree for
                  neighborhood collectives *)
  comm : int;  (** communicator id *)
  parts : int array option;
      (** declared participant set as sorted world ranks; [None] means
          the whole communicator (every pre-existing event, so old
          traces stay byte-identical on disk) *)
  dtime : Util.Histogram.t;  (** computation time preceding this event *)
  mutable ranks : Util.Rank_set.t;  (** participating world ranks *)
  mutable hcache : int;
      (** cached {!hash}; initialize to [0] (= not yet computed) when
          building records literally *)
}

(** [of_call ~world_rank ~time_gap call] converts an intercepted MPI call
    into a singleton event; [None] for pseudo-calls ([compute],
    [MPI_Wtime]). *)
val of_call : world_rank:int -> time_gap:float -> Mpisim.Call.t -> t option

(** Structural hash over exactly the fields {!mergeable} compares (cached
    in [hcache] after the first call — those fields never change once the
    event exists).  [mergeable a b] implies [hash a = hash b], so unequal
    hashes reject in O(1); never [0]. *)
val hash : t -> int

(** Structural compatibility for compression and merging: same call site,
    kind, sizes, tag, and communicator.  Peers, participant sets, and
    timing are excluded — they are merged, not compared.  Prefiltered by
    {!hash}, so the common non-match case is one integer compare. *)
val mergeable : t -> t -> bool

(** Peer equality ([=] without the polymorphic compare). *)
val same_peer : peer -> peer -> bool

(** [absorb ~nranks ~into e] merges [e]'s timing, participants, and peer
    observations into [into].  Differing peers combine into [P_map] form;
    call {!generalize} afterwards to simplify. *)
val absorb : nranks:int -> into:t -> t -> unit

(** Simplify a [P_map] peer to [P_abs] or [P_rel] when uniform;
    [nranks] defines the modulus for relative peers. *)
val generalize : nranks:int -> t -> unit

(** [peer_of e ~rank ~nranks] resolves the concrete world peer for a
    participant, if determined. *)
val peer_of : t -> rank:int -> nranks:int -> int option

val is_collective : kind -> bool
val is_p2p : kind -> bool

(** MPI-style name, e.g. ["MPI_Irecv"]. *)
val kind_name : kind -> string

(** Deep copy (histogram and mutable fields included). *)
val copy : t -> t

val pp : Format.formatter -> t -> unit
