(** Collective rendezvous: which collective instance an arrival joins,
    and when that instance is complete.  The simulator, Algorithm 1
    (alignment) and Algorithm 2's traversal (wildcard resolution) all
    park a rank at a collective until every member has arrived; this is
    the one tracker they share.

    An instance is keyed by (communicator, participant signature, slot).
    The signature is [""] for a whole-communicator collective and the
    comma-joined declared participant set otherwise, so disjoint groups
    on one communicator advance independently.  The k-th collective a
    rank calls under one (communicator, signature) joins slot k.

    Per wait: the member array, built once by the first arrival; an
    arrived bitmap; an arrival counter, so completion is one compare; and
    a monotone smallest-missing pointer, O(members) in total per wait. *)

type key = { comm : int; psig : string; slot : int }

(** [""] for [[||]] (the whole communicator), else the ranks
    comma-joined in the given order. *)
val signature : int array -> string

type 'a wait
(** One collective instance, with a caller payload per arrival. *)

val key : 'a wait -> key

(** As the first arrival gave them.  Do not mutate. *)
val members : 'a wait -> int array

(** Arrival payloads, newest first. *)
val arrivals : 'a wait -> 'a list

(** Members that have not arrived, ascending. *)
val missing : 'a wait -> int list

(** The smallest member that has not arrived; amortized O(1).
    @raise Invalid_argument on a complete wait. *)
val smallest_missing : 'a wait -> int

type 'a t

val create : unit -> 'a t

type 'a arrival =
  | Parked of 'a wait  (** recorded; members are still missing *)
  | Complete of 'a wait  (** recorded, the last member: no longer pending *)
  | Not_member of 'a wait
      (** not a member: nothing recorded, but the slot is consumed *)

(** [arrive t ~rank ~comm ~psig ~members payload] records [rank]'s next
    collective on ([comm], [psig]).  [members ()] gives distinct world
    ranks in any order; it is called only when this arrival opens the
    wait. *)
val arrive :
  'a t ->
  rank:int ->
  comm:int ->
  psig:string ->
  members:(unit -> int array) ->
  'a ->
  'a arrival

(** The wait holding [rank]'s latest arrival on ([comm], [psig]), if it
    is still pending. *)
val parked : 'a t -> rank:int -> comm:int -> psig:string -> 'a wait option

(** Every pending wait, ordered by key. *)
val pending : 'a t -> 'a wait list
