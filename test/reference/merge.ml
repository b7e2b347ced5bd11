(* The inter-rank merge as a linear scan: for each incoming node, walk
   the unconsumed global list up to the alignment window for the first
   equivalent node — O(len(incoming) * window) [Tnode.equiv] probes per
   rank.  The oracle {!Scalatrace.Merge}'s hash-indexed scan must match
   byte for byte. *)

open Scalatrace

let merge_into_global ~nranks global incoming =
  let rec find_match n candidates depth =
    match candidates with
    | [] -> None
    | g :: rest ->
        if Tnode.equiv g n then Some depth
        else if depth + 1 >= Merge.lookahead then None
        else find_match n rest (depth + 1)
  in
  let rec go acc global incoming =
    match incoming with
    | [] -> List.rev_append acc global
    | n :: in_rest -> (
        match find_match n global 0 with
        | Some depth ->
            (* consume global nodes up to and including the match *)
            let rec consume acc global d =
              match (global, d) with
              | g :: g_rest, 0 ->
                  Tnode.absorb ~nranks ~into:g n;
                  (g :: acc, g_rest)
              | g :: g_rest, d -> consume (g :: acc) g_rest (d - 1)
              | [], _ -> assert false
            in
            let acc, g_rest = consume acc global depth in
            go acc g_rest in_rest
        | None -> go (n :: acc) global in_rest)
  in
  go [] global incoming

let merge ~nranks ~comms locals =
  let global =
    Array.fold_left
      (fun global local -> merge_into_global ~nranks global (List.map Tnode.copy local))
      [] locals
  in
  let global = Tnode.map_leaves (fun e -> Event.generalize ~nranks e; e) global in
  let global = Compress.compress_list ~nranks global in
  Trace.make ~nranks ~comms ~nodes:global
