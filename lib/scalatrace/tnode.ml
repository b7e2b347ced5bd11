type t = Leaf of Event.t | Loop of loop
and loop = { count : int; body : t list; l_len : int; l_hash : int }

(* An integer mix of the two fields equivalence compares first: no tuple,
   no [caml_hash], on every window probe and merge lookup. *)
let hash = function
  | Leaf e -> Event.hash e
  | Loop l ->
      let h = (l.l_hash + (l.count * 0x2545F4914F6CDD1D)) * 0x1E3779B97F4A7C15 in
      h lxor (h lsr 29)

(* l_hash = 17 * 31^len + sum over j of hash(body_j) * 31^j, oldest first:
   the orientation of {!Compress}'s bottom-up prefix sums. *)
let loop ~count body =
  let rec go n h p = function
    | [] -> Loop { count; body; l_len = n; l_hash = h + (17 * p) }
    | node :: rest -> go (n + 1) (h + (hash node * p)) (p * 31) rest
  in
  go 0 0 1 body

let rec equiv_gen leaf_eq a b =
  match (a, b) with
  | Leaf x, Leaf y -> leaf_eq x y
  | Loop la, Loop lb ->
      (* l_hash equality is necessary for equivalence (the hash covers only
         fields equivalence compares), so a mismatch rejects in O(1);
         l_len guards the for_all2. *)
      la.count = lb.count && la.l_len = lb.l_len && la.l_hash = lb.l_hash
      && List.for_all2 (equiv_gen leaf_eq) la.body lb.body
  | Leaf _, Loop _ | Loop _, Leaf _ -> false

let equiv a b = equiv_gen Event.mergeable a b

let equiv_ranks a b =
  let leaf_eq x y =
    Event.mergeable x y
    && Util.Rank_set.equal x.Event.ranks y.Event.ranks
    && Event.same_peer x.Event.peer y.Event.peer
  in
  equiv_gen leaf_eq a b

let rec absorb ~nranks ~into n =
  match (into, n) with
  | Leaf x, Leaf y -> Event.absorb ~nranks ~into:x y
  | Loop la, Loop lb -> List.iter2 (fun a b -> absorb ~nranks ~into:a b) la.body lb.body
  | _ -> invalid_arg "Tnode.absorb: structure mismatch"

let rec copy = function
  | Leaf e -> Leaf (Event.copy e)
  | Loop l -> Loop { l with body = List.map copy l.body }

let rec rsd_count_node = function
  | Leaf _ -> 1
  | Loop { body; _ } -> List.fold_left (fun acc n -> acc + rsd_count_node n) 0 body

let rsd_count nodes = List.fold_left (fun acc n -> acc + rsd_count_node n) 0 nodes

let rec event_count_node = function
  | Leaf e -> Util.Rank_set.cardinal e.Event.ranks
  | Loop { count; body; _ } ->
      count * List.fold_left (fun acc n -> acc + event_count_node n) 0 body

let event_count nodes = List.fold_left (fun acc n -> acc + event_count_node n) 0 nodes

let rec event_count_for_node ~rank = function
  | Leaf e -> if Util.Rank_set.mem rank e.Event.ranks then 1 else 0
  | Loop { count; body; _ } ->
      count
      * List.fold_left (fun acc n -> acc + event_count_for_node ~rank n) 0 body

let event_count_for nodes ~rank =
  List.fold_left (fun acc n -> acc + event_count_for_node ~rank n) 0 nodes

let rec project nodes ~rank =
  List.filter_map
    (fun n ->
      match n with
      | Leaf e -> if Util.Rank_set.mem rank e.Event.ranks then Some n else None
      | Loop { count; body; _ } -> (
          match project body ~rank with
          | [] -> None
          | body -> Some (loop ~count body)))
    nodes

let rec iter_leaves f nodes =
  List.iter
    (function Leaf e -> f e | Loop { body; _ } -> iter_leaves f body)
    nodes

module Phys = Hashtbl.Make (struct
  type t = Event.t

  let equal = ( == )
  let hash = Event.hash
end)

let leaf_index nodes =
  let ids = Phys.create 64 and n = ref 0 in
  iter_leaves
    (fun e ->
      Phys.replace ids e !n;
      incr n)
    nodes;
  Phys.find_opt ids

let rec map_leaves f nodes =
  List.map
    (function
      | Leaf e -> Leaf (f e)
      | Loop { count; body; _ } -> loop ~count (map_leaves f body))
    nodes

let rec pp ppf = function
  | Leaf e -> Format.fprintf ppf "@[<h>RSD %a@]" Event.pp e
  | Loop { count; body; _ } ->
      Format.fprintf ppf "@[<v 2>PRSD x%d {@,%a@]@,}" count pp_body body

and pp_body ppf body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp ppf body

let pp_list ppf nodes = pp_body ppf nodes
