(* Merge one rank's node list into the global list.

   Greedy alignment: walk the incoming list; for each node, scan the
   not-yet-consumed part of the global list (up to [lookahead] nodes) for
   the first equivalent node; merge into it, emitting any skipped global
   nodes unchanged.  If none matches, the incoming node is inserted at the
   current position.  Both orders are preserved, so the per-rank
   projections of the result equal the inputs.

   Inputs are never mutated; only inserted nodes are copied.  Every node
   of the global list is such a copy, so [absorb] only ever writes global
   nodes and only reads the incoming node it merges.

   The scan is indexed: the unconsumed global nodes are bucketed by
   structural hash, keyed by position.  [Tnode.equiv a b] implies
   [Tnode.hash a = Tnode.hash b] (the leaf hash covers exactly the fields
   [Event.mergeable] compares; the loop hash covers count and body hash,
   both required by equivalence), so scanning a node's hash bucket in
   ascending position order visits exactly the candidates a linear scan
   of the window could accept, in the same order — the greedy,
   bounded-lookahead, order-preserving result is the linear scan's,
   while each probe costs O(1) expected.  The linear scan itself is the
   differential oracle in the [reference] library (test/reference/). *)

let lookahead = 256

let merge_into_global ~nranks global incoming =
  let g = Array.of_list global in
  let glen = Array.length g in
  (* hash -> unconsumed positions, ascending.  Consumption is a strict
     prefix (the cursor below), so stale entries are dropped lazily. *)
  let index : (int, int list) Hashtbl.t = Hashtbl.create (2 * glen) in
  for i = glen - 1 downto 0 do
    let h = Tnode.hash g.(i) in
    Hashtbl.replace index h
      (i :: (match Hashtbl.find_opt index h with Some l -> l | None -> []))
  done;
  let cursor = ref 0 in
  let out = ref [] in
  (* first unconsumed equivalent of [n] within the lookahead window *)
  let find_match n =
    let h = Tnode.hash n in
    match Hashtbl.find_opt index h with
    | None -> None
    | Some positions ->
        let rec skip_consumed = function
          | p :: rest when p < !cursor -> skip_consumed rest
          | live -> live
        in
        let live = skip_consumed positions in
        if live == positions then () else Hashtbl.replace index h live;
        let rec scan = function
          | [] -> None
          | p :: rest ->
              if p - !cursor >= lookahead then None
              else if Tnode.equiv g.(p) n then Some p
              else scan rest
        in
        scan live
  in
  List.iter
    (fun n ->
      match find_match n with
      | Some p ->
          (* emit skipped global nodes unchanged, then the merge target *)
          for i = !cursor to p - 1 do
            out := g.(i) :: !out
          done;
          Tnode.absorb ~nranks ~into:g.(p) n;
          out := g.(p) :: !out;
          cursor := p + 1
      | None -> out := Tnode.copy n :: !out)
    incoming;
  for i = !cursor to glen - 1 do
    out := g.(i) :: !out
  done;
  List.rev !out

let merge_node_lists ~nranks segments =
  List.fold_left (merge_into_global ~nranks) [] segments

let merge ~nranks ~comms locals =
  let global = Array.fold_left (merge_into_global ~nranks) [] locals in
  let global = Tnode.map_leaves (fun e -> Event.generalize ~nranks e; e) global in
  (* A final compression pass can fold rank-uniform structure that only
     becomes foldable after merging. *)
  let global = Compress.compress_list ~nranks global in
  Trace.make ~nranks ~comms ~nodes:global
