(** Aligned ASCII tables and series plots for the experiment harness.

    The benchmark harness prints every reproduced paper table/figure as an
    aligned text table (and, for figures, an optional dot plot).  All layout
    logic lives here so `bench/main.ml` stays declarative. *)

type align = Left | Right

(** [render ~header rows] lays out [rows] under [header] with per-column
    alignment inferred (numeric-looking columns right-aligned), returning a
    ready-to-print string including a rule under the header. *)
val render : header:string list -> string list list -> string

(** [print ~title ~header rows] prints a titled table to stdout. *)
val print : title:string -> header:string list -> string list list -> unit

(** [series_plot ~title ~x_label ~y_label points] renders a coarse ASCII
    scatter/line plot of [(x, y)] points, sorted by [x]. *)
val series_plot :
  title:string -> x_label:string -> y_label:string -> (float * float) list -> string

(** Format helpers shared across the harness: [fsec] renders seconds in
    engineering style (["1.234 s"], ["850.2 ms"]); [fpct] a signed
    percentage (["+2.9%"]); [fbytes] byte counts (["1.5 MiB"]). *)

val fsec : float -> string
val fpct : float -> string
val fbytes : int -> string
