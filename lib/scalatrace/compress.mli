(** On-the-fly intra-rank loop compression.

    Implements ScalaTrace's sliding-window tail compression: after each
    event is appended, the compressor tries (a) to extend an existing PRSD
    whose body matches the new tail and (b) to fold the last [2w] nodes
    into a new 2-iteration PRSD when the two halves are equivalent, for
    window sizes [w = 1..window].  Successful folds cascade, so nested
    source loops become nested PRSDs.  The trace is an array stack with
    per-slot hash prefix sums: a push writes O(1) slots and scans the
    windows with O(window) integer compares, and only a window that passes
    its hash filter costs an O(w) structural check.  That is what lets
    traces be collected greedily without buffering the whole event
    stream. *)

type t

(** [create ~nranks ()] — [window] bounds the loop-body length that can be
    detected (default 64). *)
val create : ?window:int -> nranks:int -> unit -> t

val push : t -> Event.t -> unit

(** Append an already-built node (RSD or PRSD) and recompress the tail;
    used by trace-rewriting passes that emit whole nodes. *)
val push_node : t -> Tnode.t -> unit

(** Compressed trace in chronological order.  The compressor can keep
    receiving events afterwards. *)
val contents : t -> Tnode.t list

(** [compress_list ~nranks nodes] — run the same tail compression over an
    existing node list (used by the generator when appending RSDs to its
    output queue, cf. "Compress T_out" in Algorithm 1). *)
val compress_list : ?window:int -> nranks:int -> Tnode.t list -> Tnode.t list
