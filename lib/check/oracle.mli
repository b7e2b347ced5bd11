(** The differential semantic oracle.

    [check prog] runs [prog] three ways — the original application
    directly, the pipeline's resolved trace under {!Replay}, and the
    generated coNCePTuaL benchmark re-parsed from its pretty-printed text
    and lowered back onto the simulator — and demands that all three
    agree on:

    - {b per-channel happens-before order}: for every (sender, receiver,
      tag) channel, the ordered sequence of message sizes at match time.
      Per-channel matching is FIFO, so this is the sender's program order
      — deterministic on every side.  It subsumes per-pair message counts
      and byte volumes.  Cross-channel interleaving at a receiver is
      timing, not semantics, and is not compared.
    - {b collective participation}: the multiset of completed collectives
      as (operation, sorted world participants), with the operations of
      both runs normalized through the Table 1 substitutions (MPI_Gather
      and its generated MPI_Reduce both read as ["RED"], etc.) and
      singleton-group collectives dropped (the lowering skips them).

    The pretty-printed text must also re-parse to the generated AST, and
    the pipeline itself must succeed: a typed [gen_error] (as provoked by
    {!Benchgen.Pipeline.defect.D_skip_wildcard}) is a violation too. *)

type violation =
  | V_invalid of string  (** the program broke {!Gen.validate} *)
  | V_original of string  (** the original run itself failed: generator bug *)
  | V_pipeline_error of string  (** {!Benchgen.Pipeline.run} returned [Error] *)
  | V_roundtrip of string  (** pretty-printed text did not re-parse to the AST *)
  | V_replay of { side : string; detail : string }
      (** a reproduction run deadlocked, stalled, or raised *)
  | V_channels of { side : string; detail : string }
      (** per-channel count/bytes/order mismatch *)
  | V_collectives of { side : string; detail : string }
      (** collective participant-multiset mismatch *)

(** Stable short name for metrics labels. *)
val kind : violation -> string

val to_string : violation -> string

(** What a passing run observed (of the original side). *)
type stats = { s_channels : int; s_messages : int; s_collectives : int }

(** {1 Observation API}

    The oracle's observation machinery, exported so other differential
    harnesses (notably {!Collfuzz}, which sweeps collective algorithms)
    can collect and compare the same semantic signature: per-channel FIFO
    byte sequences and the Table-1-normalized collective participant
    multiset.  Both observations are timing-independent, which is exactly
    what makes them usable as an equivalence oracle across
    {!Mpisim.Coll_alg} strategies that only move completion times. *)

(** One run's observations. *)
type side

val new_side : unit -> side

(** The hook that populates [side]; pass to any simulator entry point. *)
val collector : side -> Mpisim.Hooks.t

(** First semantic discrepancy between two observed runs, as a
    [V_channels] or [V_collectives] violation naming [side_name]. *)
val compare_sides :
  side_name:string ->
  original:side ->
  reproduction:side ->
  (unit, violation) result

(** {1 The property} *)

(** Run the property.  Deterministic: same [prog], [defect], and
    [coll_alg] always yield the same result.  [defect] deliberately
    breaks the pipeline under test ({!Benchgen.Pipeline.defect}); with
    the default [None] the production pipeline is checked.  [coll_alg]
    (default [`Monolithic]) selects the collective algorithm for all
    three sides, so the 3-way property can be asserted under every
    schedule strategy. *)
val check :
  ?defect:Benchgen.Pipeline.defect ->
  ?coll_alg:Mpisim.Coll_alg.t ->
  Gen.prog ->
  (stats, violation) result
