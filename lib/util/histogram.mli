(** Scalable summaries of computation-time samples.

    ScalaTrace does not store one duration per call instance; it compresses
    all durations observed at a call path — across loop iterations and
    ranks — into a small summary (Ratn et al., ICS'08).  This summary keeps
    five exact numbers: count, sum, min, max and the first sample (the
    paper notes the first loop iteration usually differs from the rest).
    They are what a trace file stores and what the generated benchmark's
    COMPUTE times (the mean) are made from.  A summary is 6 words. *)

type t

(** [create ()] is an empty summary. *)
val create : unit -> t

(** [add t x] records sample [x] (seconds; must be finite and [>= 0.]). *)
val add : t -> float -> unit

val count : t -> int
val sum : t -> float

(** [min_value], [max_value], [mean]: 0. when empty. *)

val min_value : t -> float
val max_value : t -> float
val mean : t -> float

(** Value of the first sample added; 0. when empty. *)
val first_sample : t -> float

(** Rebuild a summary from its serialized fields; every field is exact.
    A [count] of 0 gives an empty summary. *)
val of_stats :
  count:int -> sum:float -> min:float -> max:float -> first:float -> t

(** Merge the second summary into the first (inter-node trace merging).
    The merged [first_sample] is the first node's.  The two may be the
    same summary. *)
val merge_into : t -> t -> unit

val copy : t -> t

val pp : Format.formatter -> t -> unit
