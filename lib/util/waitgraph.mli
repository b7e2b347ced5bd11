(** Wait-for graphs: who is blocked in what, waiting on whom.

    The shared diagnostic vocabulary for every "cannot make progress"
    report in the system: the alignment pass uses it when a collective's
    participant set can never complete (a member's trace stream ended),
    and the simulator's watchdog uses it when a run exceeds its budgets.
    One formatter means the two reports read identically. *)

type edge = {
  e_rank : int;  (** the blocked rank *)
  e_what : string;  (** operation + call site, e.g. ["MPI_Allreduce at lu.f:42"] *)
  e_waiting_on : int list;  (** ranks whose arrival would unblock it *)
  e_missing : int list;
      (** subset of [e_waiting_on] that can never arrive (stream ended,
          rank ablated, ...) *)
}

(** Sorted/deduped constructor. *)
val edge :
  rank:int ->
  what:string ->
  ?waiting_on:int list ->
  ?missing:int list ->
  unit ->
  edge

(** Multi-line rendering, one indented edge per line under [header],
    sorted by rank. *)
val format : ?header:string -> edge list -> string

(** All ranks named missing by any edge, sorted and deduplicated. *)
val missing_ranks : edge list -> int list
