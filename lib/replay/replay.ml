open Scalatrace

exception Replay_error of string

type result = {
  outcome : Mpisim.Engine.outcome;
  wildcard_matches : ((int * int) * int list) list;
}

(* Outstanding nonblocking requests, oldest first, with the leaf number
   ({!Tnode.leaf_index}) of the wildcard receive they belong to, if any,
   so the matched source can be recorded when the wait completes. *)
type pending = { req : Mpisim.Call.request; wild_leaf : int option }

let uniform_vec ~p ~total =
  let base = total / max 1 p in
  Array.init p (fun i -> if i < p - 1 then base else total - (base * (p - 1)))

type compute_mode = Mean | Draw of int

let run ?(net = Mpisim.Netmodel.bluegene_l) ?(hooks = []) ?fault ?max_events
    ?max_virtual_time ?coll_alg ?obs ?(compute_scale = 1.0) ?(compute = Mean)
    trace =
  let nranks = Trace.nranks trace in
  let comm_table = List.filter (fun (id, _) -> id <> 0) (Trace.comms trace) in
  (* built on the first wildcard receive: most traces have none *)
  let leaf_index = lazy (Tnode.leaf_index (Trace.nodes trace)) in
  let id_of e =
    match Lazy.force leaf_index e with
    | Some i -> i
    | None -> raise (Replay_error "event not part of the trace")
  in
  let matches : (int * int, int list ref) Hashtbl.t = Hashtbl.create 32 in
  let record ~leaf ~rank ~src =
    let key = (leaf, rank) in
    match Hashtbl.find_opt matches key with
    | Some q -> q := src :: !q
    | None -> Hashtbl.replace matches key (ref [ src ])
  in
  let program (ctx : Mpisim.Mpi.ctx) =
    let r = ctx.rank in
    let gap_rng =
      match compute with
      | Mean -> None
      | Draw seed -> Some (Util.Rng.split (Util.Rng.create ~seed) ~index:r)
    in
    (* recreate the application's communicators deterministically *)
    let comms = Hashtbl.create 8 in
    Hashtbl.replace comms 0 ctx.world;
    List.iter
      (fun (cid, members) ->
        let color = if Util.Rank_set.mem r members then 1 else 0 in
        let c =
          Mpisim.Mpi.comm_split
            ~site:(Util.Callsite.synthetic (Printf.sprintf "replay_comm_%d" cid))
            ctx ~color ~key:r
        in
        if color = 1 then Hashtbl.replace comms cid c)
      comm_table;
    let comm_of cid =
      match Hashtbl.find_opt comms cid with
      | Some c -> c
      | None -> raise (Replay_error (Printf.sprintf "communicator %d not recreated" cid))
    in
    let local comm world =
      match Mpisim.Comm.local_of_world comm world with
      | Some l -> l
      | None -> raise (Replay_error "peer outside communicator during replay")
    in
    let outstanding : pending list ref = ref [] in
    let push p = outstanding := !outstanding @ [ p ] in
    let pop_oldest k =
      let rec go k acc rest =
        if k = 0 then (List.rev acc, rest)
        else match rest with [] -> (List.rev acc, []) | p :: tl -> go (k - 1) (p :: acc) tl
      in
      let taken, rest = go k [] !outstanding in
      outstanding := rest;
      taken
    in
    let record_status (p : pending) (st : Mpisim.Call.status) comm =
      match p.wild_leaf with
      | Some leaf ->
          let src_world = Mpisim.Comm.world_of_local comm st.actual_source in
          record ~leaf ~rank:r ~src:src_world
      | None -> ()
    in
    let exec (e : Event.t) =
      let site = e.site in
      let comm = comm_of e.comm in
      let p = Mpisim.Comm.size comm in
      let gap =
        (match gap_rng with
        | None -> Util.Histogram.mean e.dtime
        | Some rng -> Util.Histogram.draw e.dtime ~u:(Util.Rng.float rng))
        *. compute_scale
      in
      if gap > 0. then Mpisim.Mpi.compute ctx gap;
      let peer_world () =
        match Event.peer_of e ~rank:r ~nranks with
        | Some w -> w
        | None -> raise (Replay_error ("unresolved peer in " ^ Event.kind_name e.kind))
      in
      let src_of_peer () =
        match e.peer with
        | Event.P_any -> Mpisim.Call.Any_source
        | _ -> Mpisim.Call.Rank (local comm (peer_world ()))
      in
      let tag_match = if e.tag < 0 then Mpisim.Call.Any_tag else Mpisim.Call.Tag e.tag in
      let root_local () = local comm (peer_world ()) in
      match e.kind with
      | Event.E_send ->
          Mpisim.Mpi.send ~site ~comm ~tag:(max 0 e.tag) ctx
            ~dst:(local comm (peer_world ())) ~bytes:e.bytes
      | Event.E_isend ->
          let req =
            Mpisim.Mpi.isend ~site ~comm ~tag:(max 0 e.tag) ctx
              ~dst:(local comm (peer_world ())) ~bytes:e.bytes
          in
          push { req; wild_leaf = None }
      | Event.E_recv ->
          let st = Mpisim.Mpi.recv ~site ~comm ~tag:tag_match ctx ~src:(src_of_peer ()) ~bytes:e.bytes in
          if e.peer = Event.P_any then
            record ~leaf:(id_of e) ~rank:r
              ~src:(Mpisim.Comm.world_of_local comm st.actual_source)
      | Event.E_irecv ->
          let req =
            Mpisim.Mpi.irecv ~site ~comm ~tag:tag_match ctx ~src:(src_of_peer ()) ~bytes:e.bytes
          in
          let wild_leaf = if e.peer = Event.P_any then Some (id_of e) else None in
          push { req; wild_leaf }
      | Event.E_wait -> (
          match pop_oldest 1 with
          | [ pnd ] ->
              let st = Mpisim.Mpi.wait ~site ctx pnd.req in
              record_status pnd st comm
          | _ -> ())
      | Event.E_waitall k ->
          let taken = pop_oldest k in
          if taken <> [] then begin
            let sts = Mpisim.Mpi.waitall ~site ctx (List.map (fun p -> p.req) taken) in
            List.iteri (fun i pnd -> record_status pnd sts.(i) comm) taken
          end
      | Event.E_barrier -> Mpisim.Mpi.barrier ~site ~comm ctx
      | Event.E_bcast -> Mpisim.Mpi.bcast ~site ~comm ctx ~root:(root_local ()) ~bytes:e.bytes
      | Event.E_reduce -> Mpisim.Mpi.reduce ~site ~comm ctx ~root:(root_local ()) ~bytes:e.bytes
      | Event.E_allreduce -> Mpisim.Mpi.allreduce ~site ~comm ctx ~bytes:e.bytes
      | Event.E_gather ->
          Mpisim.Mpi.gather ~site ~comm ctx ~root:(root_local ()) ~bytes_per_rank:e.bytes
      | Event.E_gatherv ->
          let v = match e.vec with Some v -> v | None -> uniform_vec ~p ~total:e.bytes in
          Mpisim.Mpi.gatherv ~site ~comm ctx ~root:(root_local ()) ~bytes_from:v
      | Event.E_allgather ->
          Mpisim.Mpi.allgather ~site ~comm ctx ~bytes_per_rank:e.bytes
      | Event.E_allgatherv ->
          let v = match e.vec with Some v -> v | None -> uniform_vec ~p ~total:e.bytes in
          Mpisim.Mpi.allgatherv ~site ~comm ctx ~bytes_from:v
      | Event.E_scatter ->
          Mpisim.Mpi.scatter ~site ~comm ctx ~root:(root_local ()) ~bytes_per_rank:e.bytes
      | Event.E_scatterv ->
          let v = match e.vec with Some v -> v | None -> uniform_vec ~p ~total:e.bytes in
          Mpisim.Mpi.scatterv ~site ~comm ctx ~root:(root_local ()) ~bytes_to:v
      | Event.E_alltoall ->
          Mpisim.Mpi.alltoall ~site ~comm ctx ~bytes_per_pair:e.bytes
      | Event.E_alltoallv ->
          let v = match e.vec with Some v -> v | None -> uniform_vec ~p ~total:e.bytes in
          Mpisim.Mpi.alltoallv ~site ~comm ctx ~bytes_to:v
      | Event.E_reduce_scatter ->
          let v = match e.vec with Some v -> v | None -> uniform_vec ~p ~total:e.bytes in
          Mpisim.Mpi.reduce_scatter ~site ~comm ctx ~bytes_per_rank:v
      | Event.E_neighbor_alltoall | Event.E_neighbor_allgather ->
          (* Reconstruct this rank's neighbor list from the participant
             set and the offset vector; a merged trace that lost the
             stencil (vec = None) falls back to a ring of the traced
             degree, preserving participant set and per-rank volume. *)
          let parts_world =
            match e.parts with
            | Some ps -> ps
            | None -> Mpisim.Comm.members comm
          in
          let q = Array.length parts_world in
          if q > 1 then begin
            let me =
              let rec find i =
                if i >= q then
                  raise (Replay_error "rank outside neighbor participant set")
                else if parts_world.(i) = r then i
                else find (i + 1)
              in
              find 0
            in
            let offsets =
              let sanitized =
                match e.vec with
                | None -> []
                | Some v ->
                    Array.to_list v
                    |> List.map (fun o -> ((o mod q) + q) mod q)
                    |> List.filter (fun o -> o <> 0)
                    |> List.sort_uniq compare
              in
              match sanitized with
              | _ :: _ -> sanitized
              | [] ->
                  let deg = min (max e.tag 1) (q - 1) in
                  List.init deg (fun i -> i + 1)
            in
            let neighbors =
              List.map
                (fun o -> local comm parts_world.((me + o) mod q))
                offsets
              |> List.sort_uniq compare |> Array.of_list
            in
            let parts_local =
              match e.parts with
              | None -> [||]
              | Some ps ->
                  let l = Array.map (local comm) ps in
                  Array.sort compare l;
                  l
            in
            if e.kind = Event.E_neighbor_alltoall then
              Mpisim.Mpi.neighbor_alltoall ~site ~comm ~parts:parts_local ctx
                ~neighbors ~bytes_per_neighbor:e.bytes
            else
              Mpisim.Mpi.neighbor_allgather ~site ~comm ~parts:parts_local ctx
                ~neighbors ~bytes:e.bytes
          end
      | Event.E_comm_split | Event.E_comm_dup ->
          () (* communicators are pre-created *)
      | Event.E_finalize -> Mpisim.Mpi.finalize ~site ctx
    in
    let rec walk nodes =
      List.iter
        (fun n ->
          match n with
          | Tnode.Leaf e -> exec e
          | Tnode.Loop { count; body; _ } ->
              for _ = 1 to count do
                walk body
              done)
        nodes
    in
    walk (Trace.project trace ~rank:r)
  in
  let outcome =
    Mpisim.Mpi.run ~hooks ~net ?fault ?max_events ?max_virtual_time ?coll_alg
      ?obs ~nranks program
  in
  let wildcard_matches =
    Hashtbl.fold (fun k q acc -> ((k, List.rev !q) : (int * int) * int list) :: acc) matches []
    |> List.sort compare
  in
  { outcome; wildcard_matches }
