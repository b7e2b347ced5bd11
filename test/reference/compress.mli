(** List-based tail compressor: the differential oracle for
    {!Scalatrace.Compress}.  Same operations and the same compressed
    trace, with a per-push snapshot of the newest [2 * window + 1] nodes
    and list splitting on every extend and fold attempt. *)

open Scalatrace

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
