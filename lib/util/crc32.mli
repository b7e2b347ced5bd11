(** CRC-32 (IEEE 802.3), for framing integrity checks in trace files.

    The standard reflected-polynomial CRC used by zip/png; implemented
    in pure OCaml so corrupted trace frames can be detected without any
    external dependency.  All values are 32-bit non-negative ints. *)

(** CRC of a whole string. *)
val string : string -> int

(** Fixed-width lowercase hex (8 chars), the frame-header spelling. *)
val to_hex : int -> string

(** Inverse of {!to_hex}; [None] when not 8 hex chars. *)
val of_hex : string -> int option
