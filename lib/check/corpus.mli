(** On-disk program format: seed corpus entries and counterexamples.

    A program serializes to a dumb line-based text file — one header line,
    optional [seed]/[defect] metadata, then one phase per line — so
    counterexamples are reviewable in a diff and byte-stable under
    re-serialization (the shrinker-determinism guarantee extends to the
    file).  [of_string] validates the parsed program ({!Gen.validate}),
    so a corpus file is always replayable. *)

type meta = { seed : int option; defect : string option; note : string option }

(** First line of every file. *)
val magic : string

(** [note] is written as a comment; [seed] and [defect] round-trip. *)
val to_string : ?meta:meta -> Gen.prog -> string

val of_string : string -> (Gen.prog * meta, string) result

val save : path:string -> string -> unit

(** @raise Sys_error like [open_in]. *)
val load : path:string -> string
