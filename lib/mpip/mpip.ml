type cell = { mutable calls : int; mutable bytes : int }

type t = { table : (string, cell) Hashtbl.t }

type entry = { op_name : string; calls : int; bytes : int }

let create () = { table = Hashtbl.create 32 }

let record t ~world_rank ~(call : Mpisim.Call.t) =
  match call.op with
  | Compute _ | Wtime -> ()
  | op ->
      let name = Mpisim.Call.op_name op in
      let cell =
        match Hashtbl.find_opt t.table name with
        | Some c -> c
        | None ->
            let c = { calls = 0; bytes = 0 } in
            Hashtbl.replace t.table name c;
            c
      in
      let p = Mpisim.Comm.size call.comm in
      let rank =
        match Mpisim.Comm.local_of_world call.comm world_rank with
        | Some l -> l
        | None -> 0
      in
      cell.calls <- cell.calls + 1;
      cell.bytes <- cell.bytes + Mpisim.Call.local_bytes op ~p ~rank

let hook t =
  {
    Mpisim.Hooks.nil with
    on_enter = (fun ~world_rank ~time:_ call -> record t ~world_rank ~call);
  }

let entries t =
  Hashtbl.fold
    (fun op_name (c : cell) acc -> { op_name; calls = c.calls; bytes = c.bytes } :: acc)
    t.table []
  |> List.sort (fun a b -> String.compare a.op_name b.op_name)

let total_bytes t = List.fold_left (fun acc e -> acc + e.bytes) 0 (entries t)

let diff a b =
  let names =
    List.sort_uniq String.compare
      (List.map (fun e -> e.op_name) (entries a)
      @ List.map (fun e -> e.op_name) (entries b))
  in
  List.filter_map
    (fun name ->
      let find t =
        match Hashtbl.find_opt t.table name with
        | Some c -> (c.calls, c.bytes)
        | None -> (0, 0)
      in
      let ca, ba = find a and cb, bb = find b in
      if ca = cb && ba = bb then None
      else
        Some
          (Printf.sprintf "%s: calls %d vs %d, bytes %d vs %d" name ca cb ba bb))
    names

let equal a b = diff a b = []

let record_metrics t (m : Obs.Metrics.t) =
  List.iter
    (fun e ->
      let labels = [ ("op", e.op_name) ] in
      Obs.Metrics.inc m ~labels ~by:e.calls "mpi.calls";
      Obs.Metrics.inc m ~labels ~by:e.bytes "mpi.bytes")
    (entries t)

let pp ppf t =
  List.iter
    (fun e -> Format.fprintf ppf "%-20s %8d calls %12d bytes@." e.op_name e.calls e.bytes)
    (entries t)
