(** List-scan message-matching queues: the differential oracle for
    {!Mpisim.Matchq}.  Same operations and the same FIFO-per-pattern
    semantics, O(n) per operation. *)

module Unexpected : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add : t -> Mpisim.Matchq.msg -> unit

  (** Remove and return the earliest-added message the pattern accepts. *)
  val take : t -> Mpisim.Matchq.posted -> Mpisim.Matchq.msg option
end

module Posted : sig
  type t

  val create : unit -> t
  val length : t -> int
  val add : t -> Mpisim.Matchq.posted -> unit

  (** Remove and return the earliest-added receive accepting a message
      with these coordinates. *)
  val take :
    t -> src:int -> tag:int -> comm:int -> Mpisim.Matchq.posted option

  val mem : t -> src:int -> tag:int -> comm:int -> bool
end
