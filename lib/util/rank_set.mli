(** Compact sets of MPI ranks.

    Rank sets appear in every RSD of a compressed trace, so they are stored
    as sorted lists of disjoint, stride-aware intervals: [{first; last;
    stride}] denotes [first, first+stride, ..., last].  This keeps the
    common cases — "all ranks", "every k-th rank", "one rank" — at constant
    size regardless of the communicator size, which is what makes trace and
    generated-benchmark sizes sublinear in the process count. *)

type t

val empty : t
val is_empty : t -> bool

val singleton : int -> t

(** [range ?stride first last] is [first, first+stride, ..., last].
    @raise Invalid_argument if [stride <= 0] or [last < first]. *)
val range : ?stride:int -> int -> int -> t

(** [all n] is ranks [0..n-1]. *)
val all : int -> t

val of_list : int list -> t

(** {1 Building from ascending intervals}

    These build a set in time and space linear in the number of
    intervals given, never in the number of ranks they cover. *)

type builder

val builder : unit -> builder

(** [push b (first, last, stride)] adds [first, first+stride, ..., <= last].
    @raise Invalid_argument if [stride <= 0], [last < first], or [first]
    is not past every rank pushed before. *)
val push : builder -> int * int * int -> unit

val build : builder -> t

(** [of_intervals ivs] is the set of the ascending intervals [ivs], in
    canonical form whatever their split.
    @raise Invalid_argument as {!push}. *)
val of_intervals : (int * int * int) list -> t

val to_list : t -> int list

val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val equal : t -> t -> bool
val subset : t -> t -> bool
val cardinal : t -> int

val min_elt : t -> int option
val max_elt : t -> int option

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
val map : (int -> int) -> t -> t

(** Number of intervals in the internal representation; a proxy for the
    serialized size of the set. *)
val interval_count : t -> int

(** Intervals as [(first, last, stride)] triples, in increasing order. *)
val intervals : t -> (int * int * int) list

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Total order, for use as a map key. *)
val compare : t -> t -> int
