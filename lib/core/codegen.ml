open Scalatrace
module A = Conceptual.Ast

exception Codegen_error of string

(* Group a per-rank peer map into few (task set, peer expression) pairs:
   prefer grouping by relative offset (stencils), fall back to grouping by
   absolute peer, pick whichever needs fewer statements. *)
let peer_groups ~nranks (e : Event.t) =
  let ranks = e.ranks in
  match e.peer with
  | Event.P_abs a -> [ (ranks, `Abs a) ]
  | Event.P_rel d -> [ (ranks, `Rel d) ]
  | Event.P_any ->
      raise
        (Codegen_error
           "unresolved MPI_ANY_SOURCE in trace; run wildcard resolution first")
  | Event.P_none ->
      raise (Codegen_error "point-to-point event without a peer")
  | Event.P_map m ->
      (* only participants matter; stale observations are dropped *)
      let m = List.filter (fun (r, _) -> Util.Rank_set.mem r ranks) m in
      let group_by f tag =
        let keys = List.sort_uniq compare (List.map f m) in
        List.map
          (fun k ->
            let rs =
              List.filter_map (fun (r, p) -> if f (r, p) = k then Some r else None) m
            in
            (Util.Rank_set.of_list rs, tag k))
          keys
      in
      let by_offset =
        group_by (fun (r, p) -> (p - r + nranks) mod nranks) (fun d -> `Rel d)
      in
      let by_abs = group_by (fun (_, p) -> p) (fun a -> `Abs a) in
      if List.length by_offset <= List.length by_abs then by_offset else by_abs

(* Peer expression for a task subset.  For a singleton subset everything is
   a constant; otherwise relative peers use the set's binder variable with
   modular arithmetic, printed as t+d or t-d', whichever is smaller. *)
let peer_expr ~nranks tasks_subset form =
  match (form, tasks_subset) with
  | `Abs a, _ -> A.Int a
  | `Rel d, A.Single (A.Int r) -> A.Int ((r + d) mod nranks)
  | `Rel d, ts -> (
      let var =
        match A.binder ts with
        | Some v -> v
        | None -> raise (Codegen_error "relative peer over unbound task set")
      in
      let t = A.Var var in
      let inner =
        if d <= nranks / 2 then A.Bin (A.Add, t, A.Int d)
        else A.Bin (A.Sub, t, A.Int (nranks - d))
      in
      A.Bin (A.Mod, inner, A.Int nranks))

let program ?name ?(compute_floor_usecs = 0.05) trace =
  let nranks = Trace.nranks trace in
  let tasks_of ranks = A.tasks_of_rank_set ~nranks ranks in
  let members_of (e : Event.t) =
    match e.parts with
    | Some ps ->
        (* a declared participant set overrides communicator membership *)
        Util.Rank_set.of_list (Array.to_list ps)
    | None -> (
        match List.assoc_opt e.comm (Trace.comms trace) with
        | Some m -> m
        | None -> e.ranks)
  in
  let compute_stmts (e : Event.t) =
    let usecs = Util.Histogram.mean e.dtime *. 1e6 in
    if usecs >= compute_floor_usecs then
      [
        A.Compute
          {
            tasks = tasks_of e.ranks;
            usecs = A.Float (Float.round (usecs *. 1000.) /. 1000.);
          };
      ]
    else []
  in
  let p2p_stmts (e : Event.t) =
    let bytes = A.Int e.bytes in
    peer_groups ~nranks e
    |> List.map (fun (subset, form) ->
           let tasks = tasks_of subset in
           let peer = peer_expr ~nranks tasks form in
           match e.kind with
           | Event.E_send ->
               A.Send
                 { src = tasks; async = false; bytes; dst = peer; tag = e.tag;
                   implicit_recv = false }
           | Event.E_isend ->
               A.Send
                 { src = tasks; async = true; bytes; dst = peer; tag = e.tag;
                   implicit_recv = false }
           | Event.E_recv ->
               A.Receive { dst = tasks; async = false; bytes; src = peer; tag = e.tag }
           | Event.E_irecv ->
               A.Receive { dst = tasks; async = true; bytes; src = peer; tag = e.tag }
           | _ -> assert false)
  in
  let coll_stmts (e : Event.t) =
    let members = members_of e in
    let p = Util.Rank_set.cardinal members in
    let m_list = Util.Rank_set.to_list members in
    let first_member =
      match m_list with
      | m :: _ -> m
      | [] -> raise (Codegen_error "collective with empty membership")
    in
    let group = tasks_of members in
    let resolve_root r = if r < 0 then first_member else r in
    match Collective_map.map ~p e with
    | Collective_map.T_sync -> [ A.Sync group ]
    | Collective_map.T_multicast { root; bytes } ->
        [
          A.Multicast
            { src = A.Single (A.Int (resolve_root root)); bytes = A.Int bytes; dst = group };
        ]
    | Collective_map.T_reduce { root; bytes } ->
        [
          A.Reduce
            { src = group; bytes = A.Int bytes; dst = A.Single (A.Int (resolve_root root)) };
        ]
    | Collective_map.T_reduce_all { bytes } ->
        [ A.Reduce { src = group; bytes = A.Int bytes; dst = group } ]
    | Collective_map.T_alltoall { bytes } ->
        [ A.Alltoall { tasks = group; bytes = A.Int bytes } ]
    | Collective_map.T_reduce_multicast { root; reduce_bytes; multicast_bytes } ->
        let root = resolve_root root in
        [
          A.Reduce
            { src = group; bytes = A.Int reduce_bytes; dst = A.Single (A.Int root) };
          A.Multicast
            { src = A.Single (A.Int root); bytes = A.Int multicast_bytes; dst = group };
        ]
    | Collective_map.T_reduce_per_member { bytes_per_member } ->
        List.mapi
          (fun i m ->
            let bytes =
              if i < Array.length bytes_per_member then bytes_per_member.(i)
              else 0
            in
            A.Reduce { src = group; bytes = A.Int bytes; dst = A.Single (A.Int m) })
          m_list
    | Collective_map.T_neighbor { gather; bytes; offsets } ->
        [
          A.Neighbor
            { tasks = group; bytes = A.Int bytes;
              offsets = Array.to_list offsets; gather };
        ]
    | Collective_map.T_skip -> []
  in
  (* one RSD's code; called once per RSD, not per instance *)
  let gen_rsd (e : Event.t) =
    let comm_part =
      match e.kind with
      | Event.E_send | Event.E_isend | Event.E_recv | Event.E_irecv -> p2p_stmts e
      | Event.E_wait | Event.E_waitall _ -> [ A.Await (tasks_of e.ranks) ]
      | _ -> coll_stmts e
    in
    (* The computation gap precedes the event even when the event
       itself generates no code (e.g. MPI_Finalize). *)
    compute_stmts e @ comm_part
  in
  let rec gen_nodes nodes = List.concat_map gen_node nodes
  and gen_node = function
    | Tnode.Leaf e -> gen_rsd e
    | Tnode.Loop { count; body; _ } -> [ A.For { count = A.Int count; body = gen_nodes body } ]
  in
  let body = gen_nodes (Trace.nodes trace) in
  let comments =
    [
      Printf.sprintf "benchmark generated from %s"
        (Option.value ~default:"an application trace" name);
      Printf.sprintf "tasks: %d; source trace: %d RSDs covering %d MPI events"
        nranks (Trace.rsd_count trace) (Trace.event_count trace);
      "all task numbers are absolute ranks in MPI_COMM_WORLD";
    ]
  in
  {
    A.comments;
    body =
      (A.Reset (A.All None) :: body)
      @ [ A.Log { tasks = A.Single (A.Int 0); agg = None; label = "Total elapsed (us)" } ];
  }
