(** The global (inter-rank merged) application trace.

    This is the exchange format between ScalaTrace and the benchmark
    generator: a compressed node sequence whose per-rank projections equal
    the per-rank event streams, plus the membership table of every
    communicator the application created. *)

type t

val make :
  nranks:int -> comms:(int * Util.Rank_set.t) list -> nodes:Tnode.t list -> t

val nranks : t -> int
val nodes : t -> Tnode.t list

(** Communicator memberships, sorted by id; id 0 is the world. *)
val comms : t -> (int * Util.Rank_set.t) list

(** Replace the node sequence (trace-rewriting passes). *)
val with_nodes : t -> Tnode.t list -> t

(** {1 Size and content metrics} *)

val rsd_count : t -> int
val event_count : t -> int

(** Serialized size in bytes of {!to_text} — the "trace file size" proxy
    used by the scaling experiments. *)
val text_size : t -> int

(** [project t ~rank] — the event-node sequence rank [rank] executes. *)
val project : t -> rank:int -> Tnode.t list

(** True if any receive event uses MPI_ANY_SOURCE — the O(r) pre-check of
    Section 4.4. *)
val has_wildcards : t -> bool

(** True if some collective call site covers only part of its
    communicator — the O(r) pre-check of Section 4.3. *)
val has_unaligned_collectives : t -> bool

val to_text : t -> string
val pp : Format.formatter -> t -> unit
