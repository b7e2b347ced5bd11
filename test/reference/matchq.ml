(* The engine's original matching queues: plain lists scanned in order.
   O(n) per operation, obviously FIFO per pattern — the oracle the
   indexed {!Mpisim.Matchq} is checked against. *)

open Mpisim.Matchq

(* Remove the first element satisfying [pred]; None if absent. *)
let take_first pred l =
  let rec go acc = function
    | [] -> None
    | x :: rest -> if pred x then Some (x, List.rev_append acc rest) else go (x :: acc) rest
  in
  match go [] !l with
  | Some (x, rest) ->
      l := rest;
      Some x
  | None -> None

module Unexpected = struct
  type t = msg list ref

  let create () : t = ref []
  let length (t : t) = List.length !t
  let add (t : t) m = t := !t @ [ m ]
  let take (t : t) (p : posted) = take_first (fun m -> msg_matches_posted m p) t
end

module Posted = struct
  type t = posted list ref

  let create () : t = ref []
  let length (t : t) = List.length !t
  let add (t : t) p = t := !t @ [ p ]

  let accepts ~src ~tag ~comm (p : posted) =
    p.p_comm = comm
    && (match p.p_src with None -> true | Some s -> s = src)
    && match p.p_tag with None -> true | Some t -> t = tag

  let take (t : t) ~src ~tag ~comm = take_first (accepts ~src ~tag ~comm) t
  let mem (t : t) ~src ~tag ~comm = List.exists (accepts ~src ~tag ~comm) !t
end
