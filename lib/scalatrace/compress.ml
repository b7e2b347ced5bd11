(* The compressed trace is an array-backed stack, oldest node at index 0,
   carrying each slot's hash in bottom-up prefix sums

     pre.(i) = sum over j < i of Tnode.hash nodes.(j) * 31^j

   so that the hash signature of any top segment is a difference of two
   prefix sums.  A slot holding a PRSD whose body could fit a window also
   carries the body length and the body's signature as it would appear
   just above that slot.  A push or a fold writes O(1) slots; the window
   filters below are integer compares on those arrays, which keeps the
   per-push scan of all windows off the nodes themselves.

   [Tnode.equiv_ranks a b] implies [Tnode.hash a = Tnode.hash b] (the
   hashes cover only fields equivalence compares), so each filter is a
   necessary condition of the structural check behind it: no filter
   rejects a window the full check would accept, and the result is that
   of the unfiltered scan.  The list-based compressor in the [reference]
   library (test/reference/) is the differential oracle. *)

type t = {
  window : int;
  nranks : int;
  foldable : Event.t -> bool;
  mutable len : int;
  mutable nodes : Tnode.t array; (* stack slots, index 0 = oldest *)
  mutable pre : int array; (* prefix sums, see above; capacity + 1 *)
  mutable pw : int array; (* pw.(i) = 31^i; capacity + 1 *)
  mutable blen : int array; (* PRSD body length, 0 for an RSD or a long body *)
  mutable bsig : int array; (* see [set_slot]; meaningful when blen > 0 *)
}

let create ?(window = 64) ?(foldable = fun _ -> true) ~nranks () =
  if window < 1 then invalid_arg "Compress.create: window < 1";
  (* arrays are sized on the first push: Array.make needs a witness node,
     and trace-rebuilding passes create many compressors that stay empty *)
  {
    window;
    nranks;
    foldable;
    len = 0;
    nodes = [||];
    pre = [| 0 |];
    pw = [| 1 |];
    blen = [||];
    bsig = [||];
  }

let grow t n =
  let cap = max 8 (2 * Array.length t.nodes) in
  let nodes = Array.make cap n in
  Array.blit t.nodes 0 nodes 0 t.len;
  let blen = Array.make cap 0 and bsig = Array.make cap 0 in
  Array.blit t.blen 0 blen 0 t.len;
  Array.blit t.bsig 0 bsig 0 t.len;
  let pre = Array.make (cap + 1) 0 and pw = Array.make (cap + 1) 1 in
  Array.blit t.pre 0 pre 0 (t.len + 1);
  for i = 1 to cap do
    pw.(i) <- pw.(i - 1) * 31
  done;
  t.nodes <- nodes;
  t.pre <- pre;
  t.pw <- pw;
  t.blen <- blen;
  t.bsig <- bsig

(* Store [n] at slot [i] (< capacity) and set the stack height to i + 1.
   For a PRSD with body length w <= window, [bsig] is its body's
   signature, [l_hash - 17 * 31^w] (see {!Tnode.loop}), shifted by 31^(i+1)
   to the prefix-sum position of the slots above it. *)
let set_slot t i n =
  t.nodes.(i) <- n;
  t.pre.(i + 1) <- t.pre.(i) + (Tnode.hash n * t.pw.(i));
  (match n with
  | Tnode.Loop { l_len; l_hash; _ } when l_len <= t.window ->
      (* 31^l_len by hand: l_len may exceed the capacity [pw] covers *)
      let rec pow k p = if k = 0 then p else pow (k - 1) (p * 31) in
      t.blen.(i) <- l_len;
      t.bsig.(i) <- (l_hash - (17 * pow l_len 1)) * t.pw.(i + 1)
  | Tnode.Loop _ | Tnode.Leaf _ -> t.blen.(i) <- 0);
  t.len <- i + 1

(* Make [n] the node at slot [i] and the top of the stack; slots above are
   popped and cleared so the stack holds no dead nodes. *)
let set_top t i n =
  for k = i + 1 to t.len - 1 do
    t.nodes.(k) <- n
  done;
  set_slot t i n

let rec all_foldable t = function
  | Tnode.Leaf e -> t.foldable e
  | Tnode.Loop { body; _ } -> List.for_all (all_foldable t) body

let foldable_slots t lo hi =
  let rec go k = k >= hi || (all_foldable t t.nodes.(k) && go (k + 1)) in
  go lo

(* Rule A: the w nodes on top repeat the body of the PRSD at slot
   i = len - 1 - w -> bump its iteration count. *)
let extend t w =
  let n = t.len in
  let i = n - 1 - w in
  match t.nodes.(i) with
  | Tnode.Loop ({ body; _ } as l) ->
      let rec same k = function
        | [] -> true
        | b :: rest -> Tnode.equiv_ranks b t.nodes.(k) && same (k + 1) rest
      in
      same (i + 1) body && foldable_slots t (i + 1) n
      && begin
           List.iteri
             (fun j into -> Tnode.absorb ~nranks:t.nranks ~into t.nodes.(i + 1 + j))
             body;
           (* body unchanged structurally: reuse the cached l_len/l_hash *)
           set_top t i (Tnode.Loop { l with count = l.count + 1 });
           true
         end
  | Tnode.Leaf _ -> false

(* Rule B: the top 2w nodes are two equivalent halves -> new 2-iteration
   PRSD. *)
let fold t w =
  let n = t.len in
  let lo = n - (2 * w) and mid = n - w in
  let rec same k =
    k >= w || (Tnode.equiv_ranks t.nodes.(lo + k) t.nodes.(mid + k) && same (k + 1))
  in
  same 0 && foldable_slots t lo mid && foldable_slots t mid n
  && begin
       for k = 0 to w - 1 do
         Tnode.absorb ~nranks:t.nranks ~into:t.nodes.(lo + k) t.nodes.(mid + k)
       done;
       set_top t lo (Tnode.loop ~count:2 (List.init w (fun k -> t.nodes.(lo + k))));
       true
     end

(* One round tries windows w = 1..window in order, extend before fold at
   each w; a success restarts the round, so folds cascade.  Filters, with
   s = pre.(n) - pre.(n - w) the top w slots' signature:
   - extend at w: slot n - 1 - w holds a PRSD of body length w whose body
     signature [bsig] is s;
   - fold at w: n >= 2w and s is the signature of the w slots below it
     times 31^w (equal hashes slot by slot imply it). *)
let compress_tail t =
  let w = ref 1 in
  while !w <= t.window && !w < t.len do
    let w' = !w and n = t.len and pre = t.pre in
    let s = pre.(n) - pre.(n - w') in
    if
      (t.blen.(n - 1 - w') = w' && t.bsig.(n - 1 - w') = s && extend t w')
      || 2 * w' <= n
         && s = (pre.(n - w') - pre.(n - (2 * w'))) * t.pw.(w')
         && fold t w'
    then w := 1
    else incr w
  done

let push_node t n =
  if t.len = Array.length t.nodes then grow t n;
  set_slot t t.len n;
  compress_tail t

let push t e = push_node t (Tnode.Leaf e)

let contents t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.nodes.(i) :: acc) in
  go (t.len - 1) []

let compress_list ?window ?foldable ~nranks nodes =
  let t = create ?window ?foldable ~nranks () in
  List.iter (push_node t) nodes;
  contents t
