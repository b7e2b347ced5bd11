open Scalatrace

type frame = { todo : Tnode.t list; restart : (int * Tnode.t list) option }

type cursor = { frames : frame list; seen : int }

let start nodes = { frames = [ { todo = nodes; restart = None } ]; seen = 0 }

let rec peek c =
  match c.frames with
  | [] -> None
  | { todo = []; restart = Some (k, body) } :: outer when k > 0 ->
      peek
        { c with frames = { todo = body; restart = Some (k - 1, body) } :: outer }
  | { todo = []; _ } :: outer -> peek { c with frames = outer }
  | { todo = Tnode.Leaf e :: rest; restart } :: outer ->
      Some (e, { frames = { todo = rest; restart } :: outer; seen = c.seen + 1 })
  | { todo = Tnode.Loop { count; body; _ } :: rest; restart } :: outer ->
      if count <= 0 then peek { c with frames = { todo = rest; restart } :: outer }
      else
        peek
          {
            c with
            frames =
              { todo = body; restart = Some (count - 1, body) }
              :: { todo = rest; restart }
              :: outer;
          }

let consumed c = c.seen

let arrive waits ~members_of ~rank (e : Event.t) payload =
  let psig = Util.Rendezvous.signature (Option.value e.parts ~default:[||]) in
  let members () =
    let set =
      match e.parts with
      | Some ps -> Util.Rank_set.of_list (Array.to_list ps)
      | None -> members_of e.comm
    in
    Array.of_list (Util.Rank_set.to_list set)
  in
  Util.Rendezvous.arrive waits ~rank ~comm:e.comm ~psig ~members payload

(* ------------------------------------------------------------------ *)

(* The rebuild collects per-rank compressed segments between *anchors* —
   the shared (multi-participant) RSDs that Algorithm 1 emits exactly once
   per collective instance.  At finish time, the segments each anchor's
   participants accumulated since their previous anchor are merged across
   ranks (they contain only singleton-rank nodes, so no shared RSD can
   ever be duplicated), the anchor is appended once, and the resulting
   global queue is tail-compressed.  This keeps the output sublinear in
   the rank count while making per-rank projections correct by
   construction. *)

type item = {
  anchor : Event.t; (* carries its full participant set *)
  pre : Tnode.t list list; (* participants' segments since their last anchor *)
}

type rebuild = {
  nranks : int;
  comms : (int * Util.Rank_set.t) list;
  mutable per_rank : Compress.t array; (* open segment of each rank *)
  mutable items : item list; (* reversed emission order *)
}

let fresh_compressor ~nranks () =
  (* anchors never enter these segment compressors, so no foldable
     restriction is needed *)
  Compress.create ~nranks ()

let rebuild_create ~nranks ~comms =
  {
    nranks;
    comms;
    per_rank = Array.init nranks (fun _ -> fresh_compressor ~nranks ());
    items = [];
  }

(* Narrow generalized peers to this rank: keeping a multi-rank P_map on a
   singleton-rank event would misrepresent the participant set. *)
let narrowed ~nranks rank (e : Event.t) =
  let e' = Event.copy e in
  e'.ranks <- Util.Rank_set.singleton rank;
  (match e'.peer with
  | Event.P_map _ | Event.P_rel _ -> (
      match Event.peer_of e ~rank ~nranks with
      | Some p -> e'.peer <- Event.P_abs p
      | None -> ())
  | Event.P_none | Event.P_any | Event.P_abs _ -> ());
  e'

let emit_single t ~rank e =
  Compress.push t.per_rank.(rank) (narrowed ~nranks:t.nranks rank e)

let emit_group t ~ranks e =
  let e' = Event.copy e in
  e'.ranks <- ranks;
  let pre =
    Util.Rank_set.fold
      (fun rank acc ->
        let seg = Compress.contents t.per_rank.(rank) in
        t.per_rank.(rank) <- fresh_compressor ~nranks:t.nranks ();
        if seg = [] then acc else seg :: acc)
      ranks []
  in
  t.items <- { anchor = e'; pre } :: t.items

let is_world_anchor t { anchor; _ } =
  Util.Rank_set.cardinal anchor.Event.ranks = t.nranks

let world_anchor_count t =
  List.fold_left
    (fun acc it -> if is_world_anchor t it then acc + 1 else acc)
    0 t.items

(* When [upto_world_anchor = Some k], keep only the emission prefix up to
   and including the k-th world-spanning anchor — the "globally consistent
   frontier" of degraded-mode generation: every rank is provably at the
   same program point right after a world collective, so cutting there
   leaves all send/recv channels balanced. *)
let rebuild_finish ?upto_world_anchor t =
  let items = List.rev t.items in
  let items, truncating =
    match upto_world_anchor with
    | None -> (items, false)
    | Some k when k <= 0 -> ([], true)
    | Some k ->
        let rec take n = function
          | [] -> []
          | it :: rest ->
              if is_world_anchor t it then
                if n <= 1 then [ it ] else it :: take (n - 1) rest
              else it :: take n rest
        in
        (take k items, true)
  in
  let out = Compress.create ~nranks:t.nranks () in
  let flush_segments segments =
    List.iter
      (fun node -> Compress.push_node out node)
      (Merge.merge_node_lists ~nranks:t.nranks segments)
  in
  List.iter
    (fun { anchor; pre } ->
      flush_segments pre;
      (* anchors are copied so finish can run more than once (the
         degraded-mode driver probes successively earlier frontiers) *)
      Compress.push_node out (Tnode.Leaf (Event.copy anchor)))
    items;
  (* events of ranks whose stream ends without a final anchor; dropped
     when truncating to a frontier — they lie beyond the cut *)
  if not truncating then
    flush_segments
      (Array.to_list t.per_rank
      |> List.filter_map (fun c ->
             match Compress.contents c with [] -> None | seg -> Some seg));
  let nodes =
    Tnode.map_leaves
      (fun e ->
        Event.generalize ~nranks:t.nranks e;
        e)
      (Compress.contents out)
  in
  Trace.make ~nranks:t.nranks ~comms:t.comms ~nodes
