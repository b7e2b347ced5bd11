open Scalatrace

exception Potential_deadlock of string
exception Wildcard_error of string

(* A pending (unmatched) point-to-point operation instance. *)
type entry = {
  owner : int;
  is_send : bool;
  peer : int option; (* None: wildcard receive *)
  tag : int; (* -1 on receives: any tag *)
  comm : int;
  ev : Event.t; (* physical RSD event, for resolution recording *)
}

type blocked_reason =
  | B_send of entry
  | B_recv of { e : entry; mutable tried : int }
      (* [tried] cycles over candidate unblockers for wildcard receives *)
  | B_wait of { mutable tried : int (* proxy pointer into pending list *) }
  | B_coll of Util.Rendezvous.key

type node_state = {
  rank : int;
  mutable cursor : Traversal.cursor;
  mutable after : Traversal.cursor; (* cursor past the blocking event *)
  mutable finished : bool;
  mutable blocked : blocked_reason option;
  mutable pending : entry list; (* L1: own unmatched ops, oldest first *)
}

let tag_accepts ~recv_tag ~send_tag = recv_tag = -1 || recv_tag = send_tag

let describe_entry e =
  Printf.sprintf "%s by rank %d (peer %s, comm %d)"
    (if e.is_send then "send" else "receive")
    e.owner
    (match e.peer with Some p -> string_of_int p | None -> "ANY")
    e.comm

type strategy = [ `Traversal | `Timed | `Auto ]

(* Phase 2 shared by both strategies: rewrite the trace, pinning each
   wildcard receive *instance* to its matched sender.  [queues] maps
   (leaf number under [leaf_id], rank) to the senders in instance order.

   The rewrite is in place and local: RSDs whose instances all resolved to
   the same source just get their peer replaced; a loop that contains a
   wildcard RSD is unrolled and immediately recompressed, so alternating
   resolutions split the RSD (preserving per-sender message counts — the
   generated benchmark cannot hang on a count mismatch) while consistent
   ones fold back to the original structure. *)
let id_of leaf_id e =
  match leaf_id e with
  | Some i -> i
  | None -> raise (Wildcard_error "internal: event not part of the trace")

let rebuild_resolved ~leaf_id (trace : Trace.t) queues =
  let nranks = Trace.nranks trace in
  let pop ~leaf ~rank =
    match Hashtbl.find_opt queues (leaf, rank) with
    | Some q -> (
        match !q with
        | src :: rest ->
            q := rest;
            src
        | [] ->
            raise
              (Wildcard_error "wildcard receive instance without a matched sender"))
    | None ->
        raise (Wildcard_error "wildcard receive never matched during traversal")
  in
  let rec has_wildcard nodes =
    List.exists
      (function
        | Tnode.Leaf e -> e.Event.peer = Event.P_any
        | Tnode.Loop { body; _ } -> has_wildcard body)
      nodes
  in
  (* Emit one instance of a wildcard RSD with this instance's sources. *)
  let resolve_instance (e : Event.t) =
    let leaf = id_of leaf_id e in
    let obs =
      Util.Rank_set.fold (fun r acc -> (r, pop ~leaf ~rank:r) :: acc) e.Event.ranks []
      |> List.sort compare
    in
    let e' = Event.copy e in
    e'.Event.peer <- Event.P_map obs;
    Event.generalize ~nranks e';
    e'
  in
  let rec rewrite_into out nodes =
    List.iter
      (fun node ->
        match node with
        | Tnode.Leaf e ->
            if e.Event.peer = Event.P_any then
              Compress.push out (resolve_instance e)
            else Compress.push_node out (Tnode.copy node)
        | Tnode.Loop { count; body; _ } ->
            if has_wildcard body then
              (* unroll: each iteration consumes one resolution per
                 wildcard leaf per rank; the compressor folds consistent
                 iterations back together *)
              for _ = 1 to count do
                rewrite_into out body
              done
            else Compress.push_node out (Tnode.copy node))
      nodes
  in
  let out = Compress.create ~nranks () in
  rewrite_into out (Trace.nodes trace);
  Trace.with_nodes trace (Compress.contents out)

(* Phase 1, untimed: the paper's Algorithm 2 traversal.  Returns the
   resolution queues. *)
let traversal_resolve ~leaf_id (trace : Trace.t) =
  let nranks = Trace.nranks trace in
  let comms = Trace.comms trace in
  let members_of cid =
    match List.assoc_opt cid comms with
    | Some m -> m
    | None -> raise (Wildcard_error (Printf.sprintf "unknown communicator %d" cid))
  in
  let states =
    Array.init nranks (fun rank ->
        {
          rank;
          cursor = Traversal.start (Trace.project trace ~rank);
          after = Traversal.start [];
          finished = false;
          blocked = None;
          pending = [];
        })
  in
  (* L2: operations awaiting a match, indexed by the rank that must match
     them.  pending_sends.(d) are sends destined for d; pending_recvs.(r)
     are receives posted by r (so a send to r scans them). *)
  let pending_sends = Array.make nranks ([] : entry list) in
  let pending_recvs = Array.make nranks ([] : entry list) in
  let waits = Util.Rendezvous.create () in
  (* Matching senders per (wildcard RSD, receiving rank), one per instance
     in match order — which equals instance order, since receives of one
     RSD are posted and matched FIFO. *)
  let resolutions : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let push_resolution key src =
    match Hashtbl.find_opt resolutions key with
    | Some q -> q := src :: !q
    | None -> Hashtbl.replace resolutions key (ref [ src ])
  in
  let remove_entry arr idx e =
    arr.(idx) <- List.filter (fun x -> x != e) arr.(idx)
  in
  let unblock s =
    s.blocked <- None;
    s.cursor <- s.after
  in
  (* Both sides of a match are removed from all lists; blocked owners whose
     condition is now satisfied resume past their blocking event. *)
  let do_match (send : entry) (recv : entry) =
    remove_entry pending_sends recv.owner send;
    remove_entry pending_recvs recv.owner recv;
    let strip s e = s.pending <- List.filter (fun x -> x != e) s.pending in
    strip states.(send.owner) send;
    strip states.(recv.owner) recv;
    (if recv.ev.Event.peer = Event.P_any then
       push_resolution (id_of leaf_id recv.ev, recv.owner) send.owner);
    let maybe_unblock owner (matched : entry) =
      let s = states.(owner) in
      match s.blocked with
      | Some (B_send e) when e == matched -> unblock s
      | Some (B_recv { e; _ }) when e == matched -> unblock s
      | Some (B_wait _) when s.pending = [] -> unblock s
      | _ -> ()
    in
    maybe_unblock send.owner send;
    maybe_unblock recv.owner recv
  in
  (* matched-count per (sender, wildcard receiver): used to balance
     wildcard matching across senders, mirroring the round-robin arrival
     pattern of wavefront codes *)
  let channel_counts : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump_channel src dst =
    Hashtbl.replace channel_counts (src, dst)
      (1 + Option.value ~default:0 (Hashtbl.find_opt channel_counts (src, dst)))
  in
  (* Matching attempts for a newly traversed op (the L2 lookup). *)
  let try_match_send (send : entry) =
    let dst = Option.get send.peer in
    let candidate =
      List.find_opt
        (fun (r : entry) ->
          r.comm = send.comm
          && tag_accepts ~recv_tag:r.tag ~send_tag:send.tag
          && match r.peer with None -> true | Some p -> p = send.owner)
        pending_recvs.(dst)
    in
    match candidate with
    | Some recv ->
        if recv.peer = None then bump_channel send.owner recv.owner;
        do_match send recv;
        true
    | None -> false
  in
  let try_match_recv (recv : entry) =
    let compatible (s : entry) =
      s.comm = recv.comm
      && tag_accepts ~recv_tag:recv.tag ~send_tag:s.tag
      && match recv.peer with None -> true | Some p -> p = s.owner
    in
    let candidate =
      match recv.peer with
      | Some _ -> List.find_opt compatible pending_sends.(recv.owner)
      | None ->
          (* wildcard: prefer the sender least used on this channel so
             far, breaking ties by pending order *)
          List.fold_left
            (fun best (s : entry) ->
              if not (compatible s) then best
              else
                let c =
                  Option.value ~default:0
                    (Hashtbl.find_opt channel_counts (s.owner, recv.owner))
                in
                match best with
                | Some (_, bc) when bc <= c -> best
                | _ -> Some (s, c))
            None pending_sends.(recv.owner)
          |> Option.map fst
    in
    match candidate with
    | Some send ->
        if recv.peer = None then bump_channel send.owner recv.owner;
        do_match send recv;
        true
    | None -> false
  in
  let world_peer (e : Event.t) rank =
    match Event.peer_of e ~rank ~nranks with
    | Some p -> p
    | None ->
        raise
          (Wildcard_error
             (Printf.sprintf "rank %d: unresolvable peer in %s" rank
                (Event.kind_name e.kind)))
  in
  (* Advance rank [r] until it blocks or finishes.  Returns unit; the
     caller inspects the state. *)
  let advance r =
    let s = states.(r) in
    let running = ref true in
    while !running do
      match Traversal.peek s.cursor with
      | None ->
          s.finished <- true;
          running := false
      | Some (e, after) -> (
          match e.kind with
          | Event.E_send | Event.E_isend ->
              let dst = world_peer e r in
              let entry =
                { owner = r; is_send = true; peer = Some dst; tag = e.tag;
                  comm = e.comm; ev = e }
              in
              if try_match_send entry then s.cursor <- after
              else begin
                pending_sends.(dst) <- pending_sends.(dst) @ [ entry ];
                s.pending <- s.pending @ [ entry ];
                if e.kind = Event.E_send then begin
                  s.blocked <- Some (B_send entry);
                  s.after <- after;
                  running := false
                end
                else s.cursor <- after
              end
          | Event.E_recv | Event.E_irecv ->
              (* wildcard RSDs keep matching as wildcards on every loop
                 iteration; only the first match pins the recorded source *)
              let peer =
                match e.peer with
                | Event.P_any -> None
                | _ -> Some (world_peer e r)
              in
              let entry =
                { owner = r; is_send = false; peer; tag = e.tag; comm = e.comm;
                  ev = e }
              in
              if try_match_recv entry then s.cursor <- after
              else begin
                pending_recvs.(r) <- pending_recvs.(r) @ [ entry ];
                s.pending <- s.pending @ [ entry ];
                if e.kind = Event.E_recv then begin
                  s.blocked <- Some (B_recv { e = entry; tried = 0 });
                  s.after <- after;
                  running := false
                end
                else s.cursor <- after
              end
          | Event.E_wait | Event.E_waitall _ ->
              if s.pending = [] then s.cursor <- after
              else begin
                s.blocked <- Some (B_wait { tried = 0 });
                s.after <- after;
                running := false
              end
          | _ when Event.is_collective e.kind -> (
              match Traversal.arrive waits ~members_of ~rank:r e (r, after) with
              | Complete w ->
                  (* resumes every arrival, this rank included: keep
                     running *)
                  List.iter
                    (fun (r', after') ->
                      let s' = states.(r') in
                      s'.blocked <- None;
                      s'.cursor <- after')
                    (Util.Rendezvous.arrivals w)
              | Parked w ->
                  s.blocked <- Some (B_coll (Util.Rendezvous.key w));
                  s.after <- after;
                  running := false
              | Not_member w ->
                  let { Util.Rendezvous.comm; slot; _ } = Util.Rendezvous.key w in
                  raise
                    (Wildcard_error
                       (Printf.sprintf
                          "rank %d reaches %s on communicator %d (slot %d) \
                           outside its participant set"
                          r (Event.kind_name e.kind) comm slot)))
          | _ ->
              raise (Wildcard_error "unhandled event kind in traversal"))
    done
  in
  let deadlock_message () =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "potential deadlock: every unfinished rank is blocked:";
    Array.iter
      (fun s ->
        if not s.finished then begin
          let what =
            match s.blocked with
            | Some (B_send e) -> "blocking " ^ describe_entry e
            | Some (B_recv { e; _ }) -> "blocking " ^ describe_entry e
            | Some (B_wait _) ->
                Printf.sprintf "a wait on %d pending operations" (List.length s.pending)
            | Some (B_coll { comm; slot; _ }) ->
                Printf.sprintf "a collective on communicator %d (slot %d)" comm
                  slot
            | None -> "<runnable>"
          in
          Buffer.add_string buf (Printf.sprintf "\n  rank %d blocked on %s" s.rank what)
        end)
      states;
    Buffer.contents buf
  in
  (* Scheduling: always advance the least-progressed runnable rank.  This
     keeps the per-rank traversals in near-lockstep, so wildcard receives
     match sends from the same logical phase (approximating the real
     arrival order) instead of letting one sender run iterations ahead —
     the property that keeps the resolved receive assignment *valid* (the
     generated benchmark cannot starve an iteration).  Matching unblocks
     ranks eagerly, so "every unfinished rank is blocked" is exactly the
     paper's sufficient deadlock condition: the traversal has returned to
     a blocked node with no unblocking event possible. *)
  let all_done () = Array.for_all (fun s -> s.finished) states in
  while not (all_done ()) do
    let candidate = ref None in
    Array.iter
      (fun s ->
        if (not s.finished) && s.blocked = None then
          match !candidate with
          | Some (best : node_state)
            when Traversal.consumed best.cursor <= Traversal.consumed s.cursor ->
              ()
          | _ -> candidate := Some s)
      states;
    match !candidate with
    | Some s -> advance s.rank
    | None -> raise (Potential_deadlock (deadlock_message ()))
  done;
  Hashtbl.fold
    (fun k q acc ->
      Hashtbl.replace acc k (ref (List.rev !q));
      acc)
    resolutions
    (Hashtbl.create (Hashtbl.length resolutions))

let timed_resolve ?net (trace : Trace.t) =
  let result =
    try Replay.run ?net trace
    with Mpisim.Engine.Deadlock msg ->
      raise (Potential_deadlock ("replay of the traced execution hangs: " ^ msg))
  in
  let queues = Hashtbl.create 64 in
  List.iter
    (fun (key, srcs) -> Hashtbl.replace queues key (ref srcs))
    result.Replay.wildcard_matches;
  queues

let run ?(strategy = `Auto) ?net ?(on_fallback = fun _ -> ()) (trace : Trace.t) =
  let leaf_id = Tnode.leaf_index (Trace.nodes trace) in
  let rebuild_resolved = rebuild_resolved ~leaf_id in
  match strategy with
  | `Traversal -> rebuild_resolved trace (traversal_resolve ~leaf_id trace)
  | `Timed -> rebuild_resolved trace (timed_resolve ?net trace)
  | `Auto -> (
      match traversal_resolve ~leaf_id trace with
      | exception Potential_deadlock msg ->
          (* The untimed traversal wedged.  Replaying the trace decides
             whether that is a genuine hazard: a hanging replay re-raises
             from timed_resolve; a completing one resolves the wildcards
             from an actual execution. *)
          on_fallback
            ("untimed traversal reported a potential deadlock; falling back \
              to timed resolution: " ^ msg);
          rebuild_resolved trace (timed_resolve ?net trace)
      | queues -> (
          let resolved = rebuild_resolved trace queues in
          (* Validity check: an assignment is acceptable only if the
             resolved trace actually executes.  Untimed matching can
             occasionally pick an unrealizable sender order in pipelined
             codes. *)
          match Replay.run ?net resolved with
          | _ -> resolved
          | exception Mpisim.Engine.Deadlock _ ->
              on_fallback
                "untimed wildcard assignment failed replay validation; \
                 falling back to timed resolution";
              rebuild_resolved trace (timed_resolve ?net trace)))


let resolve_if_needed ?strategy ?net ?on_fallback trace =
  if Trace.has_wildcards trace then (run ?strategy ?net ?on_fallback trace, true)
  else (trace, false)
