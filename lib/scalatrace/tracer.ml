type t = {
  nranks : int;
  compressors : Compress.t array;
  last_return : float array;
  mutable comms : (int * Util.Rank_set.t) list; (* comm id -> world members *)
}

let create ?window ~nranks () =
  {
    nranks;
    compressors = Array.init nranks (fun _ -> Compress.create ?window ~nranks ());
    last_return = Array.make nranks 0.;
    comms = [ (0, Util.Rank_set.all nranks) ];
  }

let on_enter t ~world_rank ~time (call : Mpisim.Call.t) =
  let time_gap = time -. t.last_return.(world_rank) in
  match Event.of_call ~world_rank ~time_gap call with
  | None -> ()
  | Some e -> Compress.push t.compressors.(world_rank) e

let on_return t ~world_rank ~time (call : Mpisim.Call.t) (v : Mpisim.Call.value) =
  (match call.op with
  | Compute _ | Wtime -> () (* gaps between MPI calls include local work *)
  | _ -> t.last_return.(world_rank) <- time);
  match v with
  | V_comm c ->
      let id = Mpisim.Comm.id c in
      if not (List.mem_assoc id t.comms) then
        t.comms <-
          (id, Util.Rank_set.of_list (Array.to_list (Mpisim.Comm.members c)))
          :: t.comms
  | V_unit | V_request _ | V_status _ | V_statuses _ | V_time _ -> ()

let hook t =
  {
    Mpisim.Hooks.nil with
    on_enter = (fun ~world_rank ~time call -> on_enter t ~world_rank ~time call);
    on_return =
      (fun ~world_rank ~time call v -> on_return t ~world_rank ~time call v);
  }

let local_traces t = Array.map Compress.contents t.compressors

let finish t =
  let locals = local_traces t in
  let comms = List.sort compare t.comms in
  Merge.merge ~nranks:t.nranks ~comms locals

let trace_run ?net ?fault ?max_events ?max_virtual_time ?coll_alg ?obs
    ?(extra_hooks = []) ~nranks program =
  let t = create ~nranks () in
  let outcome =
    Mpisim.Mpi.run ~hooks:(hook t :: extra_hooks) ?net ?fault ?max_events
      ?max_virtual_time ?coll_alg ?obs ~nranks program
  in
  (finish t, outcome)
