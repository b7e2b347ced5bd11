(** Message-matching queues of the simulation engine.

    MPI matching is FIFO per pattern: a posted receive consumes the
    earliest-arriving unexpected message whose (source, tag, communicator)
    it accepts, and an arriving message completes the earliest-posted
    receive that accepts it.  Both directions admit wildcards
    ([MPI_ANY_SOURCE] / [MPI_ANY_TAG]) on the receive side only.

    Each queue is a hash index keyed by (src, tag, comm) over
    {!Util.Deque} FIFOs, giving amortized O(1) matching for concrete
    patterns.  Wildcard receives still scan in arrival order (the
    engine's deterministic wildcard policy), and an arriving message
    checks at most the four posted-pattern buckets that could accept it.

    The original O(n) list scans live outside the production libraries,
    in the [reference] library under [test/reference/]; the queue-level
    differential in [test/test_engine.ml] checks that both make the same
    match on random interleavings of adds, takes and probes. *)

type protocol = Eager | Rendezvous

type msg = {
  m_src : int; (* world ranks *)
  m_dst : int;
  m_tag : int;
  m_bytes : int;
  m_comm : int;
  m_protocol : protocol;
  m_arrival : float; (* eager: data arrival; rendezvous: RTS arrival *)
  m_send_req : int;
  mutable m_reserved : bool; (* counted against dst's unexpected buffer *)
}

type posted = {
  p_req : int;
  p_src : int option; (* world rank; None = MPI_ANY_SOURCE *)
  p_tag : int option; (* None = MPI_ANY_TAG *)
  p_comm : int;
  p_time : float;
}

(** Does message [m] satisfy posted pattern [p]? *)
val msg_matches_posted : msg -> posted -> bool

(** Unexpected-message queue: messages that arrived before a matching
    receive was posted, consumed in arrival order. *)
module Unexpected : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add : t -> msg -> unit

  (** [take t p] — remove and return the earliest-arriving message
      matching [p], if any. *)
  val take : t -> posted -> msg option

  (** Observability depths.  [bucket_count] is the number of allocated
      (src, tag, comm) index buckets; [raw_length] is the master arrival deque's physical length
      including dead cells — [raw_length t - length t] measures garbage
      awaiting compaction. *)
  val bucket_count : t -> int

  val raw_length : t -> int
end

(** Posted-receive queue: receives waiting for their message, consumed in
    post order. *)
module Posted : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add : t -> posted -> unit

  (** [take t ~src ~tag ~comm] — remove and return the earliest-posted
      receive accepting a message with these coordinates, if any. *)
  val take : t -> src:int -> tag:int -> comm:int -> posted option

  (** Non-destructive: would [take] succeed? *)
  val mem : t -> src:int -> tag:int -> comm:int -> bool

  (** Allocated pattern-shape buckets in the index. *)
  val bucket_count : t -> int
end
