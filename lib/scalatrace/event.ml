type peer =
  | P_none
  | P_abs of int
  | P_rel of int
  | P_any
  | P_map of (int * int) list

type kind =
  | E_send
  | E_isend
  | E_recv
  | E_irecv
  | E_wait
  | E_waitall of int
  | E_barrier
  | E_bcast
  | E_reduce
  | E_allreduce
  | E_gather
  | E_gatherv
  | E_allgather
  | E_allgatherv
  | E_scatter
  | E_scatterv
  | E_alltoall
  | E_alltoallv
  | E_reduce_scatter
  | E_neighbor_alltoall
  | E_neighbor_allgather
  | E_comm_split
  | E_comm_dup
  | E_finalize

type t = {
  site : Util.Callsite.t;
  kind : kind;
  mutable peer : peer;
  bytes : int;
  vec : int array option;
  tag : int;
  comm : int;
  parts : int array option;
  dtime : Util.Histogram.t;
  mutable ranks : Util.Rank_set.t;
  mutable hcache : int; (* 0 = not yet computed; see [hash] *)
}

let is_collective = function
  | E_barrier | E_bcast | E_reduce | E_allreduce | E_gather | E_gatherv
  | E_allgather | E_allgatherv | E_scatter | E_scatterv | E_alltoall
  | E_alltoallv | E_reduce_scatter | E_neighbor_alltoall | E_neighbor_allgather
  | E_comm_split | E_comm_dup | E_finalize ->
      true
  | E_send | E_isend | E_recv | E_irecv | E_wait | E_waitall _ -> false

let is_p2p = function
  | E_send | E_isend | E_recv | E_irecv -> true
  | _ -> false

let kind_name = function
  | E_send -> "MPI_Send"
  | E_isend -> "MPI_Isend"
  | E_recv -> "MPI_Recv"
  | E_irecv -> "MPI_Irecv"
  | E_wait -> "MPI_Wait"
  | E_waitall _ -> "MPI_Waitall"
  | E_barrier -> "MPI_Barrier"
  | E_bcast -> "MPI_Bcast"
  | E_reduce -> "MPI_Reduce"
  | E_allreduce -> "MPI_Allreduce"
  | E_gather -> "MPI_Gather"
  | E_gatherv -> "MPI_Gatherv"
  | E_allgather -> "MPI_Allgather"
  | E_allgatherv -> "MPI_Allgatherv"
  | E_scatter -> "MPI_Scatter"
  | E_scatterv -> "MPI_Scatterv"
  | E_alltoall -> "MPI_Alltoall"
  | E_alltoallv -> "MPI_Alltoallv"
  | E_reduce_scatter -> "MPI_Reduce_scatter"
  | E_neighbor_alltoall -> "MPI_Neighbor_alltoall"
  | E_neighbor_allgather -> "MPI_Neighbor_allgather"
  | E_comm_split -> "MPI_Comm_split"
  | E_comm_dup -> "MPI_Comm_dup"
  | E_finalize -> "MPI_Finalize"

let sum = Array.fold_left ( + ) 0

let make ~world_rank ~time_gap ~site ~kind ~peer ~bytes ~vec ~tag ~comm =
  let dtime = Util.Histogram.create () in
  Util.Histogram.add dtime (Float.max 0. time_gap);
  { site; kind; peer; bytes; vec; tag; comm; parts = None;
    dtime; ranks = Util.Rank_set.singleton world_rank; hcache = 0 }

let of_call ~world_rank ~time_gap (call : Mpisim.Call.t) =
  let comm = Mpisim.Comm.id call.comm in
  let site = call.site in
  let world_of r = Mpisim.Comm.world_of_local call.comm r in
  (* fully applied at every use: a partial application of [make] would
     allocate a chain of curried closures on every traced call *)
  let mk ~kind ~peer ~bytes ~vec ~tag =
    make ~world_rank ~time_gap ~site ~kind ~peer ~bytes ~vec ~tag ~comm
  in
  (* Neighbor offsets are positions in the declared participant set:
     offset o from participant i reaches participant (i + o) mod q.  A
     rank-relative stencil therefore produces the same [vec] on every
     rank, which is what lets RSD merging keep it exact. *)
  let neighbor_fields ~parts ~neighbors =
    let q, pos_of =
      if Array.length parts = 0 then
        (Mpisim.Comm.size call.comm, fun l -> l)
      else
        ( Array.length parts,
          fun l ->
            let rec find i = if parts.(i) = l then i else find (i + 1) in
            find 0 )
    in
    let me =
      match Mpisim.Comm.local_of_world call.comm world_rank with
      | Some l -> pos_of l
      | None -> 0
    in
    let offsets =
      Array.map (fun nb -> (pos_of nb - me + q) mod q) neighbors
    in
    Array.sort compare offsets;
    let parts =
      if Array.length parts = 0 then None
      else Some (Array.map world_of parts)
    in
    (offsets, parts)
  in
  let p2p_tag t = t in
  match call.op with
  | Compute _ | Wtime -> None
  | Send { dst; bytes; tag } ->
      Some (mk ~kind:E_send ~peer:(P_abs (world_of dst)) ~bytes ~vec:None ~tag:(p2p_tag tag))
  | Isend { dst; bytes; tag } ->
      Some (mk ~kind:E_isend ~peer:(P_abs (world_of dst)) ~bytes ~vec:None ~tag:(p2p_tag tag))
  | Recv { src; bytes; tag } ->
      let peer = match src with Mpisim.Call.Any_source -> P_any | Rank r -> P_abs (world_of r) in
      let tag = match tag with Mpisim.Call.Any_tag -> -1 | Tag t -> t in
      Some (mk ~kind:E_recv ~peer ~bytes ~vec:None ~tag)
  | Irecv { src; bytes; tag } ->
      let peer = match src with Mpisim.Call.Any_source -> P_any | Rank r -> P_abs (world_of r) in
      let tag = match tag with Mpisim.Call.Any_tag -> -1 | Tag t -> t in
      Some (mk ~kind:E_irecv ~peer ~bytes ~vec:None ~tag)
  | Wait _ -> Some (mk ~kind:E_wait ~peer:P_none ~bytes:0 ~vec:None ~tag:0)
  | Waitall reqs ->
      Some (mk ~kind:(E_waitall (List.length reqs)) ~peer:P_none ~bytes:0 ~vec:None ~tag:0)
  | Barrier -> Some (mk ~kind:E_barrier ~peer:P_none ~bytes:0 ~vec:None ~tag:0)
  | Bcast { root; bytes } ->
      Some (mk ~kind:E_bcast ~peer:(P_abs (world_of root)) ~bytes ~vec:None ~tag:0)
  | Reduce { root; bytes } ->
      Some (mk ~kind:E_reduce ~peer:(P_abs (world_of root)) ~bytes ~vec:None ~tag:0)
  | Allreduce { bytes } -> Some (mk ~kind:E_allreduce ~peer:P_none ~bytes ~vec:None ~tag:0)
  | Gather { root; bytes_per_rank } ->
      Some (mk ~kind:E_gather ~peer:(P_abs (world_of root)) ~bytes:bytes_per_rank ~vec:None ~tag:0)
  | Gatherv { root; bytes_from } ->
      Some
        (mk ~kind:E_gatherv ~peer:(P_abs (world_of root)) ~bytes:(sum bytes_from)
           ~vec:(Some (Array.copy bytes_from)) ~tag:0)
  | Allgather { bytes_per_rank } ->
      Some (mk ~kind:E_allgather ~peer:P_none ~bytes:bytes_per_rank ~vec:None ~tag:0)
  | Allgatherv { bytes_from } ->
      Some
        (mk ~kind:E_allgatherv ~peer:P_none ~bytes:(sum bytes_from)
           ~vec:(Some (Array.copy bytes_from)) ~tag:0)
  | Scatter { root; bytes_per_rank } ->
      Some (mk ~kind:E_scatter ~peer:(P_abs (world_of root)) ~bytes:bytes_per_rank ~vec:None ~tag:0)
  | Scatterv { root; bytes_to } ->
      Some
        (mk ~kind:E_scatterv ~peer:(P_abs (world_of root)) ~bytes:(sum bytes_to)
           ~vec:(Some (Array.copy bytes_to)) ~tag:0)
  | Alltoall { bytes_per_pair } ->
      Some (mk ~kind:E_alltoall ~peer:P_none ~bytes:bytes_per_pair ~vec:None ~tag:0)
  | Alltoallv { bytes_to } ->
      Some
        (mk ~kind:E_alltoallv ~peer:P_none ~bytes:(sum bytes_to)
           ~vec:(Some (Array.copy bytes_to)) ~tag:0)
  | Reduce_scatter { bytes_per_rank } ->
      Some
        (mk ~kind:E_reduce_scatter ~peer:P_none ~bytes:(sum bytes_per_rank)
           ~vec:(Some (Array.copy bytes_per_rank)) ~tag:0)
  | Neighbor_alltoall { parts; neighbors; bytes_per_neighbor } ->
      let offsets, parts = neighbor_fields ~parts ~neighbors in
      Some
        { (mk ~kind:E_neighbor_alltoall ~peer:P_none ~bytes:bytes_per_neighbor
             ~vec:(Some offsets) ~tag:(Array.length neighbors))
          with parts }
  | Neighbor_allgather { parts; neighbors; bytes } ->
      let offsets, parts = neighbor_fields ~parts ~neighbors in
      Some
        { (mk ~kind:E_neighbor_allgather ~peer:P_none ~bytes
             ~vec:(Some offsets) ~tag:(Array.length neighbors))
          with parts }
  | Comm_split { color; key } ->
      (* color/key preserved as a per-rank map entry so splits replay *)
      Some (mk ~kind:E_comm_split ~peer:(P_map [ (world_rank, color) ]) ~bytes:key ~vec:None ~tag:0)
  | Comm_dup -> Some (mk ~kind:E_comm_dup ~peer:P_none ~bytes:0 ~vec:None ~tag:0)
  | Finalize -> Some (mk ~kind:E_finalize ~peer:P_none ~bytes:0 ~vec:None ~tag:0)

let same_vec a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x = y
  | _ -> false

let same_parts = same_vec

(* [=] on these variants would call the polymorphic compare; both are
   compared once per window probe and merge candidate. *)
let same_kind a b =
  match (a, b) with E_waitall x, E_waitall y -> x = y | _ -> a == b

let same_peer a b =
  match (a, b) with
  | P_abs x, P_abs y | P_rel x, P_rel y -> x = y
  | P_none, P_none | P_any, P_any -> true
  | P_map x, P_map y -> x = y
  | _ -> false

(* Wildcardness must survive merging, so P_any only merges with P_any. *)
let peer_class = function
  | P_any -> `Any
  | P_none -> `None
  | P_abs _ | P_rel _ | P_map _ -> `Concrete

(* Structural hash over exactly the fields [mergeable] compares.  Those
   fields are immutable (peer_class is stable under [absorb]/[generalize]:
   both preserve `Concrete), so the hash is computed once and cached.
   [mergeable a b] implies [hash a = hash b]. *)
let hash e =
  if e.hcache <> 0 then e.hcache
  else begin
    let pc = match peer_class e.peer with `Any -> 1 | `None -> 2 | `Concrete -> 3 in
    let h =
      Hashtbl.hash
        (Util.Callsite.hash e.site, e.kind, e.bytes, e.tag, e.comm, e.vec,
         e.parts, pc)
    in
    let h = if h = 0 then 1 else h in
    e.hcache <- h;
    h
  end

let mergeable a b =
  hash a = hash b
  && Util.Callsite.equal a.site b.site
  && same_kind a.kind b.kind && a.bytes = b.bytes && a.tag = b.tag && a.comm = b.comm
  && same_vec a.vec b.vec
  && same_parts a.parts b.parts
  && peer_class a.peer = peer_class b.peer

(* Expand a generalized peer back to explicit (rank, peer) observations. *)
let observations e ~nranks =
  match e.peer with
  | P_none | P_any -> []
  | P_abs a -> Util.Rank_set.fold (fun r acc -> (r, a) :: acc) e.ranks []
  | P_rel d ->
      Util.Rank_set.fold (fun r acc -> (r, (r + d + nranks) mod nranks) :: acc) e.ranks []
  | P_map m -> m

let absorb ~nranks ~into e =
  Util.Histogram.merge_into into.dtime e.dtime;
  (* Peer combination: an identical generalized form covers the union of
     both rank sets unchanged; anything else falls back to an explicit
     per-rank map (re-simplified later by [generalize]).  The map is
     accumulated unsorted: absorbed events cover disjoint rank sets, so
     observations are unique by rank, and re-sorting the growing map on
     every absorb would make merging a p-rank trace O(p^2 log p) per RSD.
     [generalize] normalizes once at the end. *)
  if not (same_peer into.peer e.peer) then begin
    let merged = observations e ~nranks @ observations into ~nranks in
    if merged <> [] then into.peer <- P_map merged
  end;
  let ranks = Util.Rank_set.union into.ranks e.ranks in
  if ranks != into.ranks then into.ranks <- ranks

let generalize ~nranks e =
  match e.peer with
  | P_none | P_any | P_abs _ | P_rel _ -> ()
  | P_map [] -> ()
  | P_map m0 -> (
      (* normalize the accumulated map (see [absorb]) so the stored form
         is deterministic even when no generalization applies *)
      let m = List.sort_uniq compare m0 in
      e.peer <- P_map m;
      match m with
      | [] -> ()
      | (r0, p0) :: rest ->
          if e.kind = E_comm_split then ()
          else if List.for_all (fun (_, p) -> p = p0) rest then
            e.peer <- P_abs p0
          else begin
            let d0 = (p0 - r0 + nranks) mod nranks in
            if List.for_all (fun (r, p) -> (p - r + nranks) mod nranks = d0) m
            then e.peer <- P_rel d0
          end)

let peer_of e ~rank ~nranks =
  match e.peer with
  | P_none | P_any -> None
  | P_abs a -> Some a
  | P_rel d -> Some ((rank + d + nranks) mod nranks)
  | P_map m -> List.assoc_opt rank m

let copy e =
  {
    e with
    dtime = Util.Histogram.copy e.dtime;
    vec = Option.map Array.copy e.vec;
    parts = Option.map Array.copy e.parts;
  }

let pp_peer ppf = function
  | P_none -> ()
  | P_abs a -> Format.fprintf ppf " peer=%d" a
  | P_rel d -> Format.fprintf ppf " peer=self%+d" d
  | P_any -> Format.fprintf ppf " peer=ANY"
  | P_map m -> Format.fprintf ppf " peer=map(%d)" (List.length m)

let pp ppf e =
  Format.fprintf ppf "%s%a bytes=%d tag=%d comm=%d ranks=%a dt=%a" (kind_name e.kind)
    pp_peer e.peer e.bytes e.tag e.comm Util.Rank_set.pp e.ranks Util.Histogram.pp
    e.dtime;
  match e.parts with
  | None -> ()
  | Some ps -> Format.fprintf ppf " parts=|%d|" (Array.length ps)
