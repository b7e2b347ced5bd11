open Scalatrace

exception Align_error of string

type policy = [ `Strict | `Best_effort ]

type stall = {
  st_edges : Util.Waitgraph.edge list;
  st_missing : int list;
}

exception Incomplete of stall

type outcome = {
  out : Trace.t;
  stall : stall option;
  cut_anchors : int option;
  dropped_events : int;
}

(* A rank's arrival at a collective: rank, event, cursor past the event. *)
type arrival = int * Event.t * Traversal.cursor

type node_state = {
  mutable cursor : Traversal.cursor;
  mutable finished : bool;
  mutable blocked : arrival Util.Rendezvous.wait option;
}

(* One RSD for the complete participant set, hoisted to a single call
   point (the smallest rank's site). *)
let merge_collective (key : Util.Rendezvous.key) arrivals members =
  let { Util.Rendezvous.comm; slot; _ } = key in
  let arrivals = List.sort (fun (a, _, _) (b, _, _) -> compare a b) arrivals in
  match arrivals with
  | [] -> assert false (* the wait completed at an arrival *)
  | (_, first, _) :: rest ->
      List.iter
        (fun (r, (e : Event.t), _) ->
          if e.Event.kind <> first.Event.kind then
            raise
              (Align_error
                 (Printf.sprintf
                    "collective mismatch on communicator %d (slot %d): rank %d \
                     calls %s but rank 0 of the group calls %s"
                    comm slot r (Event.kind_name e.kind)
                    (Event.kind_name first.kind)));
          if Event.is_p2p e.kind then
            raise (Align_error "internal: p2p event in collective merge"))
        rest;
      let n = List.length arrivals in
      let all_bytes = List.map (fun (_, (e : Event.t), _) -> e.bytes) arrivals in
      let bytes =
        if List.for_all (fun b -> b = first.bytes) all_bytes then first.bytes
        else begin
          (* Rounded (half-up) mean, overflow-safe: accumulate quotients and
             remainders separately instead of summing the raw byte counts,
             which can exceed [max_int] on wide communicators. *)
          let q = ref 0 and r = ref 0 in
          List.iter
            (fun b ->
              q := !q + (b / n);
              r := !r + (b mod n))
            all_bytes;
          let mean = !q + (!r / n) in
          if 2 * (!r mod n) >= n then mean + 1 else mean
        end
      in
      let vec =
        if
          List.for_all
            (fun (_, (e : Event.t), _) -> e.vec = first.vec)
            arrivals
        then Option.map Array.copy first.vec
        else None
      in
      let peer =
        (* rooted collectives must agree on the root *)
        match first.peer with
        | Event.P_abs root ->
            List.iter
              (fun (r, (e : Event.t), _) ->
                match e.peer with
                | Event.P_abs root' when root' = root -> ()
                | Event.P_map _ when e.kind = Event.E_comm_split -> ()
                | _ ->
                    if e.kind <> Event.E_comm_split then
                      raise
                        (Align_error
                           (Printf.sprintf
                              "root mismatch in %s on communicator %d (rank %d)"
                              (Event.kind_name e.kind) comm r)))
              arrivals;
            first.peer
        | p -> p
      in
      let dtime = Util.Histogram.create () in
      List.iter
        (fun (_, (e : Event.t), _) -> Util.Histogram.merge_into dtime e.dtime)
        arrivals;
      {
        Event.site = first.site;
        kind = first.kind;
        peer;
        bytes;
        vec;
        tag = first.tag;
        comm = first.comm;
        parts = Option.map Array.copy first.parts;
        dtime;
        ranks = members;
        hcache = 0;
      }

(* The wait-for graph at a stall: one edge per rank parked at a pending
   collective, naming the members whose arrival it still needs and — as
   [missing] — those that can never arrive because their stream ended. *)
let stall_of_waits waits states =
  let edges =
    List.concat_map
      (fun w ->
        let { Util.Rendezvous.comm; slot; _ } = Util.Rendezvous.key w in
        let absent = Util.Rendezvous.missing w in
        let dead = List.filter (fun r -> states.(r).finished) absent in
        List.map
          (fun (r, (e : Event.t), _) ->
            Util.Waitgraph.edge ~rank:r
              ~what:
                (Printf.sprintf "%s at %s (communicator %d, slot %d)"
                   (Event.kind_name e.kind)
                   (Util.Callsite.to_string e.site)
                   comm slot)
              ~waiting_on:absent ~missing:dead ())
          (Util.Rendezvous.arrivals w))
      (Util.Rendezvous.pending waits)
  in
  { st_edges = edges; st_missing = Util.Waitgraph.missing_ranks edges }

let stall_message stall =
  Util.Waitgraph.format
    ~header:
      "alignment cannot complete: collective participants will never arrive \
       (trace truncated?)"
    stall.st_edges

(* Algorithm 1 with a safety net: the traversal carries an iteration
   budget (it is linear in the event count when the trace is well-formed,
   so the budget only trips on internal errors) and detects *dead waits*
   — a parked collective whose missing member's stream already ended —
   instead of spinning on them.  Under [`Strict] a dead wait raises; under
   [`Best_effort] the traversal stops and the output is cut back to the
   last channel-balanced world frontier (see {!Frontier}). *)
let run_policy ?(policy : policy = `Strict) (trace : Trace.t) =
  let nranks = Trace.nranks trace in
  let comms = Trace.comms trace in
  let members_of cid =
    match List.assoc_opt cid comms with
    | Some m -> m
    | None -> raise (Align_error (Printf.sprintf "unknown communicator %d" cid))
  in
  let states =
    Array.init nranks (fun rank ->
        { cursor = Traversal.start (Trace.project trace ~rank);
          finished = false; blocked = None })
  in
  let waits = Util.Rendezvous.create () in
  let rebuild = Traversal.rebuild_create ~nranks ~comms in
  let next_unfinished from =
    let rec go i tried =
      if tried >= nranks then None
      else
        let r = (from + i) mod nranks in
        if not states.(r).finished then Some r else go (i + 1) (tried + 1)
    in
    go 0 0
  in
  (* Jump over nodes blocked on other collectives.  [`Run r] — r can make
     progress; [`Dead] — the chain reached a rank whose stream already
     ended, so the wait can never complete; cycles mean mismatched
     collective ordering in the application and always raise. *)
  let resolve_runnable start =
    let rec go r seen =
      let s = states.(r) in
      match s.blocked with
      | None -> if s.finished then `Dead else `Run r
      | Some w -> (
          if List.mem r seen then
            raise
              (Align_error
                 "cyclic collective dependency across communicators (mismatched \
                  collective ordering in the application)")
          else go (Util.Rendezvous.smallest_missing w) (r :: seen))
    in
    go start []
  in
  let finish_collective w e =
    let arrivals = Util.Rendezvous.arrivals w in
    let members =
      match e.Event.parts with
      | None -> members_of e.comm
      | Some _ ->
          Util.Rank_set.of_list (Array.to_list (Util.Rendezvous.members w))
    in
    let merged = merge_collective (Util.Rendezvous.key w) arrivals members in
    Traversal.emit_group rebuild ~ranks:members merged;
    List.iter
      (fun (r, _, after) ->
        states.(r).blocked <- None;
        states.(r).cursor <- after)
      arrivals;
    (* resume at the first (smallest) node blocked on this collective *)
    List.fold_left (fun acc (r, _, _) -> min acc r) max_int arrivals
  in
  (* Linear in events for well-formed traces; generous slack for the
     park/resume bookkeeping.  Tripping it means an internal invariant
     broke — better a typed error than a hang. *)
  let budget = ref ((2 * Trace.event_count trace) + (16 * nranks) + 64) in
  let stall = ref None in
  let current = ref (Some 0) in
  while !current <> None && !stall = None do
    decr budget;
    if !budget < 0 then
      raise (Align_error "internal: alignment exceeded its traversal budget");
    let r = Option.get !current in
    let s = states.(r) in
    let continue_at step =
      match step with
      | Some (`Run r') -> current := Some r'
      | Some `Dead -> stall := Some (stall_of_waits waits states)
      | None -> current := None
    in
    match Traversal.peek s.cursor with
    | None ->
        s.finished <- true;
        continue_at (Option.map resolve_runnable (next_unfinished r))
    | Some (e, after) ->
        if not (Event.is_collective e.kind) then begin
          Traversal.emit_single rebuild ~rank:r e;
          s.cursor <- after
        end
        else begin
          match Traversal.arrive waits ~members_of ~rank:r e (r, e, after) with
          | Complete w -> current := Some (finish_collective w e)
          | Parked w ->
              s.blocked <- Some w;
              continue_at
                (Some (resolve_runnable (Util.Rendezvous.smallest_missing w)))
          | Not_member w ->
              let { Util.Rendezvous.comm; slot; _ } = Util.Rendezvous.key w in
              raise
                (Align_error
                   (if e.parts <> None then
                      Printf.sprintf
                        "rank %d arrives at %s on communicator %d (slot %d) \
                         but is outside the declared participant set {%s}"
                        r (Event.kind_name e.kind) comm slot
                        (Util.Rendezvous.signature (Util.Rendezvous.members w))
                    else
                      Printf.sprintf
                        "rank %d reaches a collective on communicator %d \
                         (slot %d) but is not a member of that communicator"
                        r comm slot))
        end
  done;
  match (!stall, policy) with
  | Some st, `Strict -> raise (Incomplete st)
  | Some st, `Best_effort ->
      let out, anchors = Frontier.cut ~rebuild () in
      {
        out;
        stall = Some st;
        cut_anchors = Some anchors;
        dropped_events = Trace.event_count trace - Trace.event_count out;
      }
  | None, _ ->
      let out = Traversal.rebuild_finish rebuild in
      if policy = `Best_effort && not (Frontier.balanced out) then
        (* no collective ever went unanswered, but a p2p conversation was
           cut mid-flight (pure point-to-point truncation) *)
        let out', anchors = Frontier.cut ~rebuild () in
        {
          out = out';
          stall = None;
          cut_anchors = Some anchors;
          dropped_events = Trace.event_count trace - Trace.event_count out';
        }
      else { out; stall = None; cut_anchors = None; dropped_events = 0 }

let run trace =
  try (run_policy ~policy:`Strict trace).out
  with Incomplete st -> raise (Align_error (stall_message st))

let align_if_needed trace =
  if Trace.has_unaligned_collectives trace then (run trace, true)
  else (trace, false)
