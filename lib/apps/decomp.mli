(** Process-grid decompositions shared by the application skeletons. *)

(** [near_square p] = [(px, py)] with [px * py = p], [px <= py], [px] the
    largest divisor of [p] at most [sqrt p]. *)
val near_square : int -> int * int

(** [factor3 p] = [(px, py, pz)] with product [p], as cubic as possible. *)
val factor3 : int -> int * int * int

val is_square : int -> bool
val is_power_of_two : int -> bool

(** Row-major 2-D coordinates: [coords2 ~px rank = (x, y)] with
    [rank = y * px + x]. *)
val coords2 : px:int -> int -> int * int

val rank2 : px:int -> x:int -> y:int -> int

(** Neighbor in a non-periodic 2-D grid; [None] at the boundary. *)
val neighbor2 : px:int -> py:int -> rank:int -> dx:int -> dy:int -> int option

(** 3-D coordinates and neighbors, row-major x-fastest. *)
val coords3 : px:int -> py:int -> int -> int * int * int

val rank3 : px:int -> py:int -> x:int -> y:int -> z:int -> int

(** Periodic 3-D neighbor (wraps around). *)
val neighbor3_periodic :
  px:int -> py:int -> pz:int -> rank:int -> dx:int -> dy:int -> dz:int -> int
