(** Typed random SPMD programs, deadlock-free by construction.

    A {!prog} is a pure description — rank count, repetition count, and a
    list of globally consistent communication phases — that every rank
    interprets identically ({!to_app}), so the program can never deadlock
    and the differential oracle ({!Oracle}) can re-run it bit-reproducibly
    on both sides of the pipeline.

    The phase vocabulary deliberately covers the pipeline's hard cases:

    - {!phase.P_coll} with [skewed] issues one collective from two
      distinct call sites (Algorithm 1 alignment);
    - {!phase.P_fan_in} posts [ANY_SOURCE] (optionally any-tag) receives
      whose matchings are kept unique by per-phase tag channels and, for
      any-tag, a trailing barrier (Algorithm 2 resolution);
    - {!phase.P_sub_coll} splits or duplicates the communicator;
    - {!phase.P_coll} ranges over every Table 1 collective. *)

type coll =
  | C_barrier
  | C_bcast
  | C_reduce
  | C_allreduce
  | C_gather
  | C_gatherv
  | C_allgather
  | C_allgatherv
  | C_scatter
  | C_scatterv
  | C_alltoall
  | C_alltoallv
  | C_reduce_scatter

val coll_to_string : coll -> string
val coll_of_string : string -> coll option

type phase =
  | P_ring of { offset : int; bytes : int }
      (** every rank sends [offset] forward and receives from [offset]
          back, on tag 0; [offset] in [1, nranks-1] *)
  | P_pairwise of { bytes : int }
      (** disjoint sendrecv pairs 2k <-> 2k+1 (odd rank counts leave the
          last rank idle) *)
  | P_fan_in of { root : int; tag : int; bytes : int; any_tag : bool }
      (** non-roots send to [root] on the phase's private [tag] (>= 1,
          unique per program) after a rank-dependent compute skew; [root]
          receives [nranks-1] times from [ANY_SOURCE], with [MPI_ANY_TAG]
          when [any_tag] (then the phase ends in a barrier so a wildcard
          cannot steal a later phase's message) *)
  | P_coll of { op : coll; root : int; bytes : int; skewed : bool }
      (** a world collective; [skewed] issues it from two call sites by
          rank parity *)
  | P_sub_coll of { parts : int; op : coll; root : int; bytes : int }
      (** the collective on a split communicator of [parts] contiguous
          groups (each >= 2 ranks), or on a dup of the world communicator
          when [parts = 1]; [root] is taken mod the group size *)
  | P_neighbor of {
      stride : int;
      degree : int;
      salt : int;
      stencil : bool;
      gather : bool;
      bytes : int;
    }
      (** a neighborhood collective over the ranks divisible by [stride]
          (validation keeps >= 2 of them; [stride = 1] uses the implicit
          full-communicator participant path).  Neighbor offsets in
          participant-position space are a pure function of
          [(salt, position)] — position-independent when [stencil] (the
          isomorphic fast path), per-participant otherwise — so every
          rank agrees on the topology and the phase cannot deadlock.
          [gather] selects neighbor_allgather over neighbor_alltoall. *)
  | P_compute of { usecs : int }  (** pure local work *)

type prog = { nranks : int; reps : int; phases : phase list }

(** Generator bias: [`Mixed] is the historical vocabulary (byte-identical
    draw stream to before neighborhood phases existed); [`Neighbor] keeps
    the full vocabulary but redirects half the phase draws to
    {!phase.P_neighbor}. *)
type mode = [ `Mixed | `Neighbor ]

(** Check the structural invariants the constructors above document
    (offset/root ranges, unique fan-in tags, split-group sizes, ...).
    Everything {!generate} draws — and every {!Shrink} candidate —
    satisfies them. *)
val validate : prog -> (unit, string) result

(** Interpret the program as an SPMD application.  Deterministic: the
    same [prog] always issues the same calls from the same synthetic call
    sites. *)
val to_app : prog -> Mpisim.Mpi.ctx -> unit

(** Draw a program; pure function of [seed] ([`Mixed] mode).  [nranks]
    in [2, 12], up to 8 phases, up to 3 repetitions. *)
val generate : seed:int -> prog

(** [generate] with an explicit generator bias; pure function of
    [(mode, seed)].  [generate_with ~mode:`Mixed] is [generate]. *)
val generate_with : mode:mode -> seed:int -> prog

val pp : Format.formatter -> prog -> unit
val to_string : prog -> string
