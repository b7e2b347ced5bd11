exception Deadlock of string
exception Mpi_error of string
exception Stalled of string

type ctx = { rank : int; nranks : int; world : Comm.t }

type outcome = {
  elapsed : float;
  finish_times : float array;
  events : int;
  messages : int;
  p2p_bytes : int;
  unexpected : int;
  flow_stalls : int;
  retries : int;
  timeouts : int;
  dropped : int;
}

type _ Effect.t += Mpi_call : Call.t -> Call.value Effect.t

let perform call =
  try Effect.perform (Mpi_call call)
  with Effect.Unhandled _ ->
    raise (Mpi_error "MPI call performed outside Engine.run")

(* ------------------------------------------------------------------ *)
(* Internal state                                                      *)

type fiber = (Call.value, unit) Effect.Deep.continuation

(* Message and posted-receive records (and the matching queues that hold
   them) live in {!Matchq}; [Mq.msg] travels the virtual wire, [Mq.posted]
   waits in a rank's receive queue. *)
module Mq = Matchq

(* An eager send whose injection is stalled by receiver flow control. *)
type parked = {
  q_src : int;
  q_tag : int;
  q_bytes : int;
  q_comm : int;
  q_call_time : float;
  q_send_req : int;
}

type wait_shape = W_send | W_recv | W_wait | W_waitall

type req_state = {
  r_id : int;
  r_kind : [ `Send | `Recv ];
  mutable r_done : float option;
  mutable r_status : Call.status option;
  mutable r_waiter : waiter option;
}

and waiter = {
  w_rank : int;
  w_reqs : int array;
  mutable w_remaining : int;
  mutable w_latest : float;
  w_block_time : float;
  w_shape : wait_shape;
}

type rank_state = {
  rs_rank : int;
  mutable rs_clock : float;
  mutable rs_finished : bool;
  mutable rs_finalized : bool;
  mutable rs_current : Call.t option;
  rs_posted : Mq.Posted.t; (* post order *)
  rs_unexpected : Mq.Unexpected.t; (* arrival order *)
  mutable rs_buffered : int; (* bytes of reserved unexpected eager data *)
  rs_parked : parked Util.Deque.t; (* FIFO *)
  mutable rs_proc_free : float;
      (* when the rank's message-progress engine is next available;
         arriving messages are processed serially *)
  mutable rs_nic_free : float;
      (* when the rank's inbound link is next free: transfers into one
         receiver serialize on the wire, so message bursts queue *)
}

(* One rank's arrival at a collective: world rank, time, operation. *)
type coll_arrival = int * float * Call.op

(* A completed collective instance, as the cost models see it. *)
type coll_state = {
  c_comm : Comm.t;
  c_op : Call.op; (* the last arrival's; every arrival calls the same op *)
  c_parts : int array;
      (* world ranks of the declared participant set (the whole
         communicator for everything but neighborhood collectives), in
         local-rank order *)
  c_arrivals : coll_arrival list; (* newest first *)
}

type event =
  | E_start of int
  | E_resume of int * Call.value
  | E_deliver of Mq.msg
  | E_retransmit of Mq.msg * int  (* next transmission attempt, 0-based *)

type state = {
  net : Netmodel.t;
  nranks : int;
  ranks : rank_state array;
  events : event Util.Pqueue.t;
  reqs : (int, req_state) Hashtbl.t;
  mutable next_req : int;
  mutable next_comm : int;
  comms : (int, Comm.t) Hashtbl.t;
  (* Pending collectives, keyed by (communicator id, signature of the
     declared participant set in local ranks, per-rank arrival slot). *)
  colls : coll_arrival Util.Rendezvous.t;
  coll_alg : Coll_alg.t;
  hooks : Hooks.t list;
  fibers : fiber option array;
  fault : Fault.runtime option;
  max_events : int option;
  max_virtual_time : float option;
  obs : Obs.Sink.t;
  mutable now : float;
  mutable n_events : int;
  mutable n_msgs : int;
  mutable n_bytes : int;
  mutable n_unexpected : int;
  mutable n_stalls : int;
  mutable n_inflight_bytes : int; (* bytes injected but not yet delivered *)
}

let schedule st ~time ev = Util.Pqueue.add st.events ~time ev

let fire_enter st rank call =
  let time = st.ranks.(rank).rs_clock in
  List.iter (fun (h : Hooks.t) -> h.on_enter ~world_rank:rank ~time call) st.hooks

let fire_fault st ev =
  List.iter (fun (h : Hooks.t) -> h.on_fault ~time:st.now ev) st.hooks

let fire_return st rank time call v =
  List.iter (fun (h : Hooks.t) -> h.on_return ~world_rank:rank ~time call v) st.hooks

let fire_collective_complete st ~time ~comm ~name ~participants =
  List.iter
    (fun (h : Hooks.t) -> h.on_collective_complete ~time ~comm ~name ~participants)
    st.hooks

(* ------------------------------------------------------------------ *)
(* Observability sampling                                              *)

(* Engine virtual time is seconds; trace timestamps are microseconds. *)
let obs_ts t = t *. 1e6

(* Queue depths are sampled every this many discrete events (and once at
   the end of the run) when the sink is enabled. *)
let obs_sample_every = 256

(* Per-rank queue depths plus engine-wide totals, emitted as Chrome
   counter tracks.  Purely a function of simulation state at a virtual
   time, so sampled traces stay deterministic. *)
let obs_sample st =
  let ts = obs_ts st.now in
  Array.iter
    (fun rs ->
      Obs.Sink.counter st.obs ~pid:Obs.Sink.engine_pid ~tid:rs.rs_rank ~ts
        "queues"
        [
          ("posted", float_of_int (Mq.Posted.length rs.rs_posted));
          ("posted_buckets", float_of_int (Mq.Posted.bucket_count rs.rs_posted));
          ("unexpected", float_of_int (Mq.Unexpected.length rs.rs_unexpected));
          ( "unexpected_raw",
            float_of_int (Mq.Unexpected.raw_length rs.rs_unexpected) );
          ( "unexpected_buckets",
            float_of_int (Mq.Unexpected.bucket_count rs.rs_unexpected) );
          ("parked", float_of_int (Util.Deque.length rs.rs_parked));
          ("buffered_bytes", float_of_int rs.rs_buffered);
        ])
    st.ranks;
  let fault_series =
    match st.fault with
    | None -> []
    | Some f ->
        let fs = Fault.stats f in
        [
          ("retries", float_of_int fs.retries);
          ("timeouts", float_of_int fs.timeouts);
          ("dropped", float_of_int fs.dropped);
        ]
  in
  Obs.Sink.counter st.obs ~pid:Obs.Sink.engine_pid ~tid:0 ~ts "engine"
    ([
       ("inflight_bytes", float_of_int st.n_inflight_bytes);
       ("events", float_of_int st.n_events);
       ("messages", float_of_int st.n_msgs);
       ("unexpected_total", float_of_int st.n_unexpected);
       ("flow_stalls", float_of_int st.n_stalls);
     ]
    @ fault_series)

let comm_of st cid =
  match Hashtbl.find_opt st.comms cid with
  | Some c -> c
  | None -> raise (Mpi_error (Printf.sprintf "unknown communicator id %d" cid))

let new_req st kind =
  let id = st.next_req in
  st.next_req <- id + 1;
  let r = { r_id = id; r_kind = kind; r_done = None; r_status = None; r_waiter = None } in
  Hashtbl.replace st.reqs id r;
  r

let find_req st id =
  match Hashtbl.find_opt st.reqs id with
  | Some r -> r
  | None -> raise (Mpi_error (Printf.sprintf "unknown or freed request %d" id))

let dummy_status : Call.status =
  { actual_source = -1; actual_tag = -1; received_bytes = 0 }

let status_of_req st id =
  match (find_req st id).r_status with Some s -> s | None -> dummy_status

(* Resume value owed to a blocked Wait/Send/Recv once its requests finish. *)
let waiter_value st (w : waiter) : Call.value =
  match w.w_shape with
  | W_send -> V_unit
  | W_recv | W_wait -> V_status (status_of_req st w.w_reqs.(0))
  | W_waitall -> V_statuses (Array.map (fun id -> status_of_req st id) w.w_reqs)

let waiter_done st (w : waiter) =
  schedule st ~time:(Float.max w.w_block_time w.w_latest)
    (E_resume (w.w_rank, waiter_value st w))

let complete_req st (r : req_state) ~time ?status () =
  assert (r.r_done = None);
  r.r_done <- Some time;
  (match status with Some _ -> r.r_status <- status | None -> ());
  match r.r_waiter with
  | None -> ()
  | Some w ->
      w.w_remaining <- w.w_remaining - 1;
      w.w_latest <- Float.max w.w_latest time;
      if w.w_remaining = 0 then waiter_done st w

(* Block [rank]'s fiber until every request in [reqs] completes. *)
let block_on_reqs st rank shape reqs =
  let rs = st.ranks.(rank) in
  let w =
    {
      w_rank = rank;
      w_reqs = Array.of_list reqs;
      w_remaining = 0;
      w_latest = rs.rs_clock;
      w_block_time = rs.rs_clock;
      w_shape = shape;
    }
  in
  let pending =
    List.fold_left
      (fun pending id ->
        let r = find_req st id in
        match r.r_done with
        | Some t ->
            w.w_latest <- Float.max w.w_latest t;
            pending
        | None ->
            if r.r_waiter <> None then
              raise (Mpi_error (Printf.sprintf "request %d waited on twice" id));
            r.r_waiter <- Some w;
            pending + 1)
      0 reqs
  in
  w.w_remaining <- pending;
  if pending = 0 then waiter_done st w

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let rank_lines st buf =
  Array.iter
    (fun rs ->
      if not rs.rs_finished then begin
        let call =
          match rs.rs_current with
          | Some c ->
              Format.asprintf "%a at %a" Call.pp_op c.op Util.Callsite.pp c.site
          | None -> "<not started>"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\n  rank %d at t=%.6fs blocked in %s (posted=%d unexpected=%d \
              parked=%d buffered=%dB)"
             rs.rs_rank rs.rs_clock call
             (Mq.Posted.length rs.rs_posted)
             (Mq.Unexpected.length rs.rs_unexpected)
             (Util.Deque.length rs.rs_parked) rs.rs_buffered)
      end)
    st.ranks

(* The declared participant set of a collective in local ranks; [[||]]
   (the whole communicator) for everything but neighborhood collectives. *)
let declared_parts = function
  | Call.Neighbor_alltoall { parts; _ } | Call.Neighbor_allgather { parts; _ }
    ->
      parts
  | _ -> [||]

(* Who is each unfinished rank actually waiting for?  Point-to-point calls
   name their peer directly; a rank parked in a collective waits for the
   members that have not reached its pending instance.  Peers that have
   already finished can never arrive — those are the [missing] set. *)
let wait_edges st =
  let finished w = w >= 0 && w < st.nranks && st.ranks.(w).rs_finished in
  let edges = ref [] in
  Array.iter
    (fun rs ->
      if not rs.rs_finished then
        match rs.rs_current with
        | None -> ()
        | Some c ->
            let what =
              Format.asprintf "%a at %a" Call.pp_op c.Call.op Util.Callsite.pp
                c.Call.site
            in
            let world_of l = Comm.world_of_local c.Call.comm l in
            let waiting_on =
              match c.Call.op with
              | Call.Recv { src = Call.Rank s; _ }
              | Call.Irecv { src = Call.Rank s; _ } ->
                  [ world_of s ]
              | Call.Send { dst; _ } | Call.Isend { dst; _ } -> [ world_of dst ]
              | Call.Recv { src = Call.Any_source; _ }
              | Call.Irecv { src = Call.Any_source; _ }
              | Call.Wait _ | Call.Waitall _ | Call.Compute _ | Call.Wtime ->
                  []
              | _ -> (
                  (* collective: members absent from the pending instance
                     this rank has arrived at *)
                  let psig = Util.Rendezvous.signature (declared_parts c.op) in
                  match
                    Util.Rendezvous.parked st.colls ~rank:rs.rs_rank
                      ~comm:(Comm.id c.Call.comm) ~psig
                  with
                  | None -> []
                  | Some w -> Util.Rendezvous.missing w)
            in
            let missing = List.filter finished waiting_on in
            edges :=
              Util.Waitgraph.edge ~rank:rs.rs_rank ~what ~waiting_on ~missing
                ()
              :: !edges)
    st.ranks;
  List.rev !edges

let add_wait_graph st buf =
  match wait_edges st with
  | [] -> ()
  | edges -> Buffer.add_string buf ("\n" ^ Util.Waitgraph.format edges)

let deadlock_report st =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "simulation deadlock; stuck ranks:";
  rank_lines st buf;
  add_wait_graph st buf;
  Buffer.contents buf

let stalled_report st ~reason =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "simulation stalled: %s after %d events at t=%.6fs; \
                     unfinished ranks:" reason st.n_events st.now);
  rank_lines st buf;
  add_wait_graph st buf;
  Buffer.contents buf

(* Per-transfer fault effects at departure time [depart]:
   (latency factor, bandwidth factor, additive jitter). *)
let wire_fault st ~depart =
  match st.fault with
  | None -> (1., 1., 0.)
  | Some f ->
      let lf, bf = Fault.degradation (Fault.plan f) ~now:depart in
      (lf, bf, Fault.draw_jitter f)

(* Inbound transfers serialize on the receiver's link. *)
let wire_arrival st (d : rank_state) ~depart ~bytes =
  let net = st.net in
  let lat_f, bw_f, jitter = wire_fault st ~depart in
  let start = Float.max (depart +. (net.latency *. lat_f) +. jitter) d.rs_nic_free in
  let arrival = start +. (float_of_int bytes *. net.byte_time *. bw_f) in
  d.rs_nic_free <- arrival;
  arrival

(* Inject one transmission attempt of [m], departing at [depart].  Under
   fault injection the attempt may be lost: the sender then times out and
   retransmits with exponential backoff, and after [max_retries] lost
   retransmissions the run is declared {!Stalled} rather than hanging on a
   receive that can never complete.  [attempt] is 0 for the original
   transmission. *)
let transmit st (m : Mq.msg) ~depart ~attempt =
  let lost = match st.fault with Some f -> Fault.draw_drop f | None -> false in
  if lost then begin
    let f = Option.get st.fault in
    let fs = Fault.stats f in
    fs.dropped <- fs.dropped + 1;
    fire_fault st
      (Hooks.F_drop { src = m.m_src; dst = m.m_dst; bytes = m.m_bytes; attempt });
    let p = Fault.plan f in
    if attempt >= p.max_retries then begin
      (* The receiver is now waiting on a message that will never come;
         say exactly which pair and tag gave up, in wait-for-graph form. *)
      let doomed =
        Util.Waitgraph.edge ~rank:m.m_dst
          ~what:
            (Printf.sprintf "receive of %dB message (tag %d)" m.m_bytes
               m.m_tag)
          ~waiting_on:[ m.m_src ] ()
      in
      raise
        (Stalled
           (stalled_report st
              ~reason:
                (Printf.sprintf
                   "message %d->%d (%dB, tag %d) lost %d times; \
                    retransmission budget exhausted\n%s"
                   m.m_src m.m_dst m.m_bytes m.m_tag (attempt + 1)
                   (Util.Waitgraph.format
                      ~header:"undeliverable message:" [ doomed ]))))
    end
    else begin
      fs.timeouts <- fs.timeouts + 1;
      schedule st
        ~time:(depart +. Fault.timeout_after p ~attempt)
        (E_retransmit (m, attempt + 1))
    end
  end
  else begin
    (match st.fault with
    | Some f when attempt > 0 ->
        (Fault.stats f).retries <- (Fault.stats f).retries + 1;
        fire_fault st
          (Hooks.F_retransmit
             { src = m.m_src; dst = m.m_dst; bytes = m.m_bytes; attempt })
    | _ -> ());
    let arrival =
      match m.m_protocol with
      | Mq.Eager -> wire_arrival st st.ranks.(m.m_dst) ~depart ~bytes:m.m_bytes
      | Mq.Rendezvous ->
          (* only the RTS control message travels now; it does not occupy
             the receiver's inbound link *)
          let lat_f, _, jitter = wire_fault st ~depart in
          depart +. (st.net.latency *. lat_f) +. jitter
    in
    st.n_inflight_bytes <- st.n_inflight_bytes + m.m_bytes;
    schedule st ~time:arrival (E_deliver { m with m_arrival = arrival })
  end

(* Drain flow-controlled senders after [bytes] were released at [time]. *)
let rec release_buffer st (d : rank_state) ~bytes ~time =
  d.rs_buffered <- d.rs_buffered - bytes;
  drain_parked st d ~time

and drain_parked st (d : rank_state) ~time =
  match Util.Deque.peek_front d.rs_parked with
  | None -> ()
  | Some q ->
      if d.rs_buffered + q.q_bytes <= st.net.unexpected_buffer_bytes then begin
        ignore (Util.Deque.pop_front d.rs_parked);
        d.rs_buffered <- d.rs_buffered + q.q_bytes;
        inject_parked st d q ~time ~reserved:true;
        drain_parked st d ~time
      end

and inject_parked st (d : rank_state) (q : parked) ~time ~reserved =
  let net = st.net in
  let ti =
    Float.max time (q.q_call_time +. net.overhead) +. net.resume_latency
  in
  transmit st
    {
      Mq.m_src = q.q_src;
      m_dst = d.rs_rank;
      m_tag = q.q_tag;
      m_bytes = q.q_bytes;
      m_comm = q.q_comm;
      m_protocol = Mq.Eager;
      m_arrival = 0.;
      m_send_req = q.q_send_req;
      m_reserved = reserved;
    }
    ~depart:ti ~attempt:0;
  complete_req st (find_req st q.q_send_req) ~time:ti ()

(* Message processing occupies the receiver's progress engine serially:
   completion = max(ready, proc_free) + overhead + bytes * rx_copy
   (+ the extra unexpected-queue copy when applicable). *)
let rx_complete st (d : rank_state) ~ready ~bytes ~unexpected =
  let net = st.net in
  let cost =
    net.overhead
    +. (float_of_int bytes *. net.rx_copy_per_byte)
    +. (if unexpected then float_of_int bytes *. net.unexpected_copy_per_byte
        else 0.)
  in
  let tc = Float.max ready d.rs_proc_free +. cost in
  d.rs_proc_free <- tc;
  tc

(* Status seen by the receiver, with the source translated back into the
   receiving communicator's local numbering. *)
let recv_status st (m : Mq.msg) : Call.status =
  let comm = comm_of st m.m_comm in
  let local =
    match Comm.local_of_world comm m.m_src with
    | Some l -> l
    | None ->
        raise
          (Mpi_error
             (Printf.sprintf "sender %d not a member of communicator %d"
                m.m_src m.m_comm))
  in
  { actual_source = local; actual_tag = m.m_tag; received_bytes = m.m_bytes }

(* Every path that pairs a message with a posted receive funnels through
   here, so [on_p2p_match] fires exactly once per message, in matching
   order. *)
let complete_recv st (m : Mq.msg) recv_req ~time =
  List.iter
    (fun (h : Hooks.t) ->
      h.on_p2p_match ~time ~src:m.m_src ~dst:m.m_dst ~tag:m.m_tag
        ~bytes:m.m_bytes ~comm:m.m_comm)
    st.hooks;
  complete_req st recv_req ~time ~status:(recv_status st m) ()

(* A message has physically arrived at its destination. *)
let deliver st (m : Mq.msg) =
  st.n_inflight_bytes <- st.n_inflight_bytes - m.m_bytes;
  let d = st.ranks.(m.m_dst) in
  let ta = m.m_arrival in
  match Mq.Posted.take d.rs_posted ~src:m.m_src ~tag:m.m_tag ~comm:m.m_comm with
  | Some p -> (
      let recv_req = find_req st p.p_req in
      match m.m_protocol with
      | Mq.Eager ->
          let tc = rx_complete st d ~ready:ta ~bytes:m.m_bytes ~unexpected:false in
          (* the receive buffer holds the payload until it is processed *)
          if m.m_reserved then release_buffer st d ~bytes:m.m_bytes ~time:tc;
          complete_recv st m recv_req ~time:tc
      | Mq.Rendezvous ->
          (* Handshake completes on RTS arrival; then the payload moves. *)
          let data_arrival = wire_arrival st d ~depart:ta ~bytes:m.m_bytes in
          complete_req st (find_req st m.m_send_req) ~time:data_arrival ();
          let tc =
            rx_complete st d ~ready:data_arrival ~bytes:m.m_bytes ~unexpected:false
          in
          complete_recv st m recv_req ~time:tc)
  | None ->
      Mq.Unexpected.add d.rs_unexpected m;
      st.n_unexpected <- st.n_unexpected + 1

let parked_matches_posted (q : parked) (p : Mq.posted) =
  q.q_comm = p.p_comm
  && (match p.p_src with None -> true | Some s -> s = q.q_src)
  && match p.p_tag with None -> true | Some t -> t = q.q_tag

(* The receiver posts a receive: match the unexpected queue in arrival
   order (the simulator's deterministic wildcard policy), or un-stall a
   flow-controlled sender whose message this receive will consume. *)
let post_recv st rank (p : Mq.posted) =
  let d = st.ranks.(rank) in
  match Mq.Unexpected.take d.rs_unexpected p with
  | Some m -> (
      let recv_req = find_req st p.p_req in
      match m.m_protocol with
      | Mq.Eager ->
          let tc =
            rx_complete st d ~ready:p.p_time ~bytes:m.m_bytes ~unexpected:true
          in
          if m.m_reserved then release_buffer st d ~bytes:m.m_bytes ~time:tc;
          complete_recv st m recv_req ~time:tc
      | Mq.Rendezvous ->
          let data_arrival = wire_arrival st d ~depart:p.p_time ~bytes:m.m_bytes in
          complete_req st (find_req st m.m_send_req) ~time:data_arrival ();
          let tc =
            rx_complete st d ~ready:data_arrival ~bytes:m.m_bytes ~unexpected:false
          in
          complete_recv st m recv_req ~time:tc)
  | None -> (
      Mq.Posted.add d.rs_posted p;
      (* Liveness: if the message this receive is waiting for is parked at
         a flow-controlled sender, force its injection past the full
         buffer — it will match the posted receive, not the buffer. *)
      match Util.Deque.remove_first (fun q -> parked_matches_posted q p) d.rs_parked with
      | Some q -> inject_parked st d q ~time:p.p_time ~reserved:false
      | None -> ())

(* ------------------------------------------------------------------ *)
(* Point-to-point calls                                                *)

let do_send st rank (call : Call.t) ~blocking ~dst ~bytes ~tag =
  let net = st.net in
  let comm = call.comm in
  let dst_world = Comm.world_of_local comm dst in
  if dst_world = rank then
    raise (Mpi_error (Printf.sprintf "rank %d sending to itself" rank));
  let rs = st.ranks.(rank) in
  let t0 = rs.rs_clock in
  let req = new_req st `Send in
  st.n_msgs <- st.n_msgs + 1;
  st.n_bytes <- st.n_bytes + bytes;
  let return_at time =
    if blocking then block_on_reqs st rank W_send [ req.r_id ]
    else schedule st ~time (E_resume (rank, V_request req.r_id))
  in
  if Netmodel.is_eager net ~bytes then begin
    let d = st.ranks.(dst_world) in
    let earlier_parked = Util.Deque.exists (fun q -> q.q_src = rank) d.rs_parked in
    (* a message that can never fit the buffer is admitted anyway once a
       matching receive is posted (it drains straight into the
       application); liveness depends on this *)
    let oversize = bytes > net.unexpected_buffer_bytes in
    let has_posted =
      Mq.Posted.mem d.rs_posted ~src:rank ~tag ~comm:(Comm.id comm)
    in
    if
      (not earlier_parked)
      && ((has_posted && oversize)
         || d.rs_buffered + bytes <= net.unexpected_buffer_bytes)
    then begin
      (* every eager payload occupies the receiver's buffer from injection
         until the receiver has processed it *)
      let reserved = true in
      d.rs_buffered <- d.rs_buffered + bytes;
      let ti = t0 +. net.overhead in
      transmit st
        {
          Mq.m_src = rank; m_dst = dst_world; m_tag = tag; m_bytes = bytes;
          m_comm = Comm.id comm; m_protocol = Mq.Eager; m_arrival = 0.;
          m_send_req = req.r_id; m_reserved = reserved;
        }
        ~depart:ti ~attempt:0;
      complete_req st req ~time:ti ();
      return_at ti
    end
    else begin
      (* Receiver's unexpected buffer is full (or ordering requires queueing
         behind an earlier stalled message): flow control stalls this send. *)
      st.n_stalls <- st.n_stalls + 1;
      Util.Deque.push_back d.rs_parked
        {
          q_src = rank; q_tag = tag; q_bytes = bytes;
          q_comm = Comm.id comm; q_call_time = t0; q_send_req = req.r_id;
        };
      return_at (t0 +. net.overhead)
    end
  end
  else begin
    (* Rendezvous: only the RTS travels now. *)
    transmit st
      {
        Mq.m_src = rank; m_dst = dst_world; m_tag = tag; m_bytes = bytes;
        m_comm = Comm.id comm; m_protocol = Mq.Rendezvous;
        m_arrival = 0.; m_send_req = req.r_id; m_reserved = false;
      }
      ~depart:(t0 +. net.overhead) ~attempt:0;
    return_at (t0 +. net.overhead)
  end

let do_recv st rank (call : Call.t) ~blocking ~src ~bytes:_ ~tag =
  let comm = call.comm in
  let rs = st.ranks.(rank) in
  let t0 = rs.rs_clock in
  let req = new_req st `Recv in
  let p_src =
    match (src : Call.source) with
    | Any_source -> None
    | Rank r ->
        let w = Comm.world_of_local comm r in
        if w = rank then
          raise (Mpi_error (Printf.sprintf "rank %d receiving from itself" rank));
        Some w
  in
  let p_tag = match (tag : Call.tag_match) with Any_tag -> None | Tag t -> Some t in
  let p =
    {
      Mq.p_req = req.r_id; p_src; p_tag; p_comm = Comm.id comm;
      p_time = t0 +. st.net.overhead;
    }
  in
  post_recv st rank p;
  if blocking then block_on_reqs st rank W_recv [ req.r_id ]
  else schedule st ~time:(t0 +. st.net.overhead) (E_resume (rank, V_request req.r_id))

(* ------------------------------------------------------------------ *)
(* Collectives                                                         *)

(* The representative op of a collective: the root's where rooted payload
   sizes matter (they drive the cost and schedule expansion), else the
   last arrival's. *)
let representative_op (c : coll_state) =
  let of_rank want_root =
    match
      List.find_opt
        (fun (w, _, _) ->
          match Comm.local_of_world c.c_comm w with
          | Some l -> l = want_root
          | None -> false)
        c.c_arrivals
    with
    | Some (_, _, op) -> op
    | None -> c.c_op
  in
  match c.c_op with
  | Call.Bcast { root; _ }
  | Call.Reduce { root; _ }
  | Call.Gather { root; _ }
  | Call.Gatherv { root; _ }
  | Call.Scatter { root; _ }
  | Call.Scatterv { root; _ } ->
      of_rank root
  | op -> op

let coll_cost st (c : coll_state) =
  let net = st.net in
  let p = Comm.size c.c_comm in
  let sum = Array.fold_left ( + ) 0 in
  (* every arrival calls the same operation, the root's included *)
  match representative_op c with
  | Barrier -> Netmodel.barrier_cost net ~p
  | Bcast { bytes; _ } -> Netmodel.bcast_cost net ~p ~bytes
  | Reduce { bytes; _ } -> Netmodel.reduce_cost net ~p ~bytes
  | Allreduce { bytes } -> Netmodel.allreduce_cost net ~p ~bytes
  | Gather { bytes_per_rank; _ } | Scatter { bytes_per_rank; _ } ->
      Netmodel.gather_cost net ~p ~total:((p - 1) * bytes_per_rank)
  | Gatherv { bytes_from = v; _ } | Scatterv { bytes_to = v; _ } ->
      Netmodel.gather_cost net ~p ~total:(sum v)
  | Allgather { bytes_per_rank } ->
      Netmodel.allgather_cost net ~p ~total:(p * bytes_per_rank)
  | Allgatherv { bytes_from } -> Netmodel.allgather_cost net ~p ~total:(sum bytes_from)
  | Alltoall { bytes_per_pair } ->
      Netmodel.alltoall_cost net ~p ~total:(p * bytes_per_pair)
  | Alltoallv _ ->
      (* Bottleneck rank's row determines the cost. *)
      let worst =
        List.fold_left
          (fun acc (_, _, op) ->
            match op with
            | Call.Alltoallv { bytes_to } -> max acc (sum bytes_to)
            | _ -> acc)
          0 c.c_arrivals
      in
      Netmodel.alltoall_cost net ~p ~total:worst
  | Reduce_scatter { bytes_per_rank } ->
      Netmodel.reduce_scatter_cost net ~p ~total:(sum bytes_per_rank)
  | Neighbor_alltoall _ | Neighbor_allgather _ ->
      (* Bottleneck caller: its degree and payload bound the exchange. *)
      List.fold_left
        (fun acc (_, _, op) ->
          match op with
          | Call.Neighbor_alltoall { neighbors; bytes_per_neighbor; _ } ->
              Float.max acc
                (Netmodel.neighbor_cost net ~degree:(Array.length neighbors)
                   ~bytes:bytes_per_neighbor)
          | Call.Neighbor_allgather { neighbors; bytes; _ } ->
              Float.max acc
                (Netmodel.neighbor_cost net
                   ~degree:(Array.length neighbors)
                   ~bytes)
          | _ -> acc)
        (Netmodel.neighbor_cost net ~degree:0 ~bytes:0)
        c.c_arrivals
  | Comm_split _ | Comm_dup | Finalize -> Netmodel.barrier_cost net ~p
  | Send _ | Isend _ | Recv _ | Irecv _ | Wait _ | Waitall _ | Compute _ | Wtime ->
      assert false

let split_comms st (c : coll_state) =
  (* color -> members ordered by (key, world rank) *)
  let by_color = Hashtbl.create 8 in
  List.iter
    (fun (w, _, op) ->
      match op with
      | Call.Comm_split { color; key } ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt by_color color) in
          Hashtbl.replace by_color color ((key, w) :: cur)
      | _ -> assert false)
    c.c_arrivals;
  let colors = Hashtbl.fold (fun color _ acc -> color :: acc) by_color [] in
  let colors = List.sort compare colors in
  let assignment = Hashtbl.create 8 in
  List.iter
    (fun color ->
      let members =
        Hashtbl.find by_color color |> List.sort compare |> List.map snd
        |> Array.of_list
      in
      let id = st.next_comm in
      st.next_comm <- id + 1;
      let comm = Comm.make ~id ~members in
      Hashtbl.replace st.comms id comm;
      Array.iter (fun w -> Hashtbl.replace assignment w comm) members)
    colors;
  fun w -> Hashtbl.find assignment w

(* Neighborhood collectives under a pluggable strategy: participants are
   indexed by position in the declared participant set; each arrival's
   neighbor list becomes a relative-offset array in that indexing.  When
   every participant declares the same offsets the schedule is the
   message-combining (isomorphic) form, otherwise the naive per-link
   expansion — {!Coll_alg.neighbor_schedule} decides. *)
let neighbor_times st (c : coll_state) =
  let comm = c.c_comm in
  let q = Array.length c.c_parts in
  let pos_of_world = Hashtbl.create q in
  Array.iteri (fun i w -> Hashtbl.replace pos_of_world w i) c.c_parts;
  let per_rank = Array.make q ([||], 0) in
  let start = Array.make q 0. in
  List.iter
    (fun (w, t, op) ->
      match Hashtbl.find_opt pos_of_world w with
      | None -> ()
      | Some i ->
          let neighbors, bytes =
            match op with
            | Call.Neighbor_alltoall { neighbors; bytes_per_neighbor; _ } ->
                (neighbors, bytes_per_neighbor)
            | Call.Neighbor_allgather { neighbors; bytes; _ } -> (neighbors, bytes)
            | _ -> ([||], 0)
          in
          let offsets =
            Array.map
              (fun nb ->
                let nb_world = Comm.world_of_local comm nb in
                match Hashtbl.find_opt pos_of_world nb_world with
                | Some j -> (j - i + q) mod q
                | None -> 0)
              neighbors
          in
          Array.sort compare offsets;
          per_rank.(i) <- (offsets, bytes);
          start.(i) <- t +. st.net.collective_dispatch)
    c.c_arrivals;
  let fin = Coll_alg.timings st.net (Coll_alg.neighbor_schedule ~per_rank) ~start in
  Some (fun w ->
      match Hashtbl.find_opt pos_of_world w with
      | Some i -> Some fin.(i)
      | None -> None)

(* Under a pluggable strategy, a lookup from world rank to schedule
   completion time, or [None] for the monolithic analytic path.
   Communicator management and [Finalize] always stay monolithic (they
   synchronize, they do not move data). *)
let coll_schedule_times st (c : coll_state) =
  match st.coll_alg with
  | `Monolithic -> None
  | sel -> (
      match c.c_op with
      | Call.Comm_split _ | Call.Comm_dup | Call.Finalize -> None
      | Call.Neighbor_alltoall _ | Call.Neighbor_allgather _ ->
          neighbor_times st c
      | _ -> (
          let p = Comm.size c.c_comm in
          let op = representative_op c in
          match Coll_alg.expand (Coll_alg.select sel ~op ~p) ~op ~p with
          | None -> None
          | Some sched ->
              (* Each rank enters the schedule when it arrives, paying the
                 dispatch cost once per logical collective. *)
              let start = Array.make p 0. in
              List.iter
                (fun (w, t, _) ->
                  match Comm.local_of_world c.c_comm w with
                  | Some l -> start.(l) <- t +. st.net.collective_dispatch
                  | None -> ())
                c.c_arrivals;
              let fin = Coll_alg.timings st.net sched ~start in
              Some
                (fun w ->
                  match Comm.local_of_world c.c_comm w with
                  | Some l -> Some fin.(l)
                  | None -> None)))

let finish_collective st (c : coll_state) =
  let t_all =
    List.fold_left (fun acc (_, t, _) -> Float.max acc t) 0. c.c_arrivals
  in
  let value_for =
    match c.c_op with
    | Call.Comm_split _ ->
        let lookup = split_comms st c in
        fun w -> Call.V_comm (lookup w)
    | Call.Comm_dup ->
        let id = st.next_comm in
        st.next_comm <- id + 1;
        let comm = Comm.make ~id ~members:(Comm.members c.c_comm) in
        Hashtbl.replace st.comms id comm;
        fun _ -> Call.V_comm comm
    | Call.Finalize ->
        fun w ->
          st.ranks.(w).rs_finalized <- true;
          Call.V_unit
    | _ -> fun _ -> Call.V_unit
  in
  let participants =
    Array.of_list (List.rev_map (fun (w, _, _) -> w) c.c_arrivals)
  in
  let cid = Comm.id c.c_comm in
  let name = Call.op_name c.c_op in
  (* Whichever strategy runs, exactly one completion event fires for the
     logical collective, timestamped at its last rank's completion. *)
  match coll_schedule_times st c with
  | None ->
      let done_at = t_all +. coll_cost st c in
      List.iter
        (fun (w, _, _) -> schedule st ~time:done_at (E_resume (w, value_for w)))
        c.c_arrivals;
      fire_collective_complete st ~time:done_at ~comm:cid ~name
        ~participants
  | Some fin_of ->
      let done_at =
        List.fold_left
          (fun acc (w, _, _) ->
            match fin_of w with Some t -> Float.max acc t | None -> acc)
          t_all c.c_arrivals
      in
      List.iter
        (fun (w, _, _) ->
          let at = match fin_of w with Some t -> t | None -> done_at in
          schedule st ~time:at (E_resume (w, value_for w)))
        c.c_arrivals;
      fire_collective_complete st ~time:done_at ~comm:cid ~name
        ~participants

(* Declared participant set of a neighborhood collective, validated for
   the calling rank: strictly increasing communicator-local ranks, within
   the communicator, containing the caller; the neighbor list strictly
   increasing, a subset of the participant set, never the caller.  [[||]]
   participants mean the whole communicator. *)
let check_participants rank (call : Call.t) =
  let comm = call.comm in
  let size = Comm.size comm in
  match call.op with
  | Call.Neighbor_alltoall { parts; neighbors; _ }
  | Call.Neighbor_allgather { parts; neighbors; _ } ->
      let name = Call.op_name call.op in
      let local =
        match Comm.local_of_world comm rank with
        | Some l -> l
        | None -> assert false (* membership checked by the caller *)
      in
      let check_sorted what a =
        Array.iteri
          (fun i v ->
            if v < 0 || v >= size then
              raise
                (Mpi_error
                   (Printf.sprintf
                      "rank %d: %s %s names local rank %d outside \
                       communicator %d (size %d)"
                      rank name what v (Comm.id comm) size));
            if i > 0 && a.(i - 1) >= v then
              raise
                (Mpi_error
                   (Printf.sprintf
                      "rank %d: %s %s must be strictly increasing" rank name
                      what)))
          a
      in
      let in_parts =
        if Array.length parts = 0 then fun _ -> true
        else begin
          check_sorted "participant set" parts;
          if not (Array.exists (fun v -> v = local) parts) then
            raise
              (Mpi_error
                 (Printf.sprintf
                    "rank %d (local %d) calls %s but is not in its declared \
                     participant set"
                    rank local name));
          fun v -> Array.exists (fun u -> u = v) parts
        end
      in
      check_sorted "neighbor list" neighbors;
      Array.iter
        (fun nb ->
          if nb = local then
            raise
              (Mpi_error
                 (Printf.sprintf "rank %d: %s neighbor list contains itself"
                    rank name));
          if not (in_parts nb) then
            raise
              (Mpi_error
                 (Printf.sprintf
                    "rank %d: %s neighbor %d is outside the declared \
                     participant set"
                    rank name nb)))
        neighbors
  | _ -> ()

let do_collective st rank (call : Call.t) =
  let comm = call.comm in
  if not (Comm.is_member comm ~world:rank) then
    raise
      (Mpi_error
         (Printf.sprintf "rank %d calling %s on communicator %d it is not in"
            rank (Call.op_name call.op) (Comm.id comm)));
  let cid = Comm.id comm in
  check_participants rank call;
  let parts = declared_parts call.op in
  let members () =
    if Array.length parts = 0 then Comm.members comm
    else Array.map (Comm.world_of_local comm) parts
  in
  let arrival =
    Util.Rendezvous.arrive st.colls ~rank ~comm:cid
      ~psig:(Util.Rendezvous.signature parts)
      ~members
      (rank, st.ranks.(rank).rs_clock, call.op)
  in
  match arrival with
  | Not_member _ -> assert false (* membership checked above *)
  | Parked w | Complete w -> (
      (match Util.Rendezvous.arrivals w with
      | _ :: (_, _, prev) :: _ when Call.op_name prev <> Call.op_name call.op
        ->
          raise
            (Mpi_error
               (Printf.sprintf
                  "collective mismatch on communicator %d: rank %d calls %s \
                   at %s but another rank called %s"
                  cid rank (Call.op_name call.op)
                  (Util.Callsite.to_string call.site)
                  (Call.op_name prev)))
      | _ -> ());
      match arrival with
      | Complete _ ->
          finish_collective st
            {
              c_comm = comm;
              c_op = call.op;
              c_parts = Util.Rendezvous.members w;
              c_arrivals = Util.Rendezvous.arrivals w;
            }
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Call dispatch                                                       *)

let handle_call st rank (call : Call.t) (k : fiber) =
  let rs = st.ranks.(rank) in
  st.fibers.(rank) <- Some k;
  rs.rs_current <- Some call;
  fire_enter st rank call;
  match call.op with
  | Send { dst; bytes; tag } -> do_send st rank call ~blocking:true ~dst ~bytes ~tag
  | Isend { dst; bytes; tag } -> do_send st rank call ~blocking:false ~dst ~bytes ~tag
  | Recv { src; bytes; tag } -> do_recv st rank call ~blocking:true ~src ~bytes ~tag
  | Irecv { src; bytes; tag } -> do_recv st rank call ~blocking:false ~src ~bytes ~tag
  | Wait r -> block_on_reqs st rank W_wait [ r ]
  | Waitall rs_ -> block_on_reqs st rank W_waitall rs_
  | Compute d ->
      if not (Float.is_finite d) || d < 0. then
        raise (Mpi_error "compute: duration must be finite and non-negative");
      let d =
        match st.fault with
        | Some f -> d *. Fault.compute_factor f ~rank
        | None -> d
      in
      schedule st ~time:(rs.rs_clock +. d) (E_resume (rank, V_unit))
  | Wtime -> schedule st ~time:rs.rs_clock (E_resume (rank, V_time rs.rs_clock))
  | Barrier | Bcast _ | Reduce _ | Allreduce _ | Gather _ | Gatherv _
  | Allgather _ | Allgatherv _ | Scatter _ | Scatterv _ | Alltoall _
  | Alltoallv _ | Reduce_scatter _ | Neighbor_alltoall _ | Neighbor_allgather _
  | Comm_split _ | Comm_dup | Finalize ->
      do_collective st rank call

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)

let run ?(hooks = []) ?(net = Netmodel.bluegene_l) ?fault ?max_events
    ?max_virtual_time ?(coll_alg : Coll_alg.t = `Monolithic)
    ?(obs = Obs.Sink.nil) ~nranks program =
  if nranks < 1 then raise (Mpi_error "run: nranks must be >= 1");
  (* With a live sink, transport incidents and collective completions are
     observed through the standard hook mechanism. *)
  let hooks = if obs.Obs.Sink.enabled then hooks @ [ Hooks.observer obs ] else hooks in
  (match max_events with
  | Some m when m <= 0 -> raise (Mpi_error "run: max_events must be positive")
  | _ -> ());
  (match max_virtual_time with
  | Some t when not (Float.is_finite t) || t <= 0. ->
      raise (Mpi_error "run: max_virtual_time must be positive and finite")
  | _ -> ());
  let fault =
    match fault with
    | Some plan when not (Fault.is_noop plan) -> Some (Fault.start plan)
    | _ -> None
  in
  let world = Comm.world nranks in
  let st =
    {
      net;
      nranks;
      ranks =
        Array.init nranks (fun rank ->
            {
              rs_rank = rank; rs_clock = 0.; rs_finished = false;
              rs_finalized = false; rs_current = None;
              rs_posted = Mq.Posted.create ();
              rs_unexpected = Mq.Unexpected.create ();
              rs_buffered = 0;
              rs_parked = Util.Deque.create ~capacity:4 ();
              rs_proc_free = 0.; rs_nic_free = 0.;
            });
      events = Util.Pqueue.create ();
      reqs = Hashtbl.create 1024;
      next_req = 0;
      next_comm = 1;
      comms = Hashtbl.create 16;
      colls = Util.Rendezvous.create ();
      coll_alg;
      hooks;
      fibers = Array.make nranks None;
      fault;
      max_events;
      max_virtual_time;
      obs;
      now = 0.;
      n_events = 0;
      n_msgs = 0;
      n_bytes = 0;
      n_unexpected = 0;
      n_stalls = 0;
      n_inflight_bytes = 0;
    }
  in
  Hashtbl.replace st.comms 0 world;
  let start_fiber rank =
    let body () =
      program { rank; nranks; world };
      let rs = st.ranks.(rank) in
      if not rs.rs_finalized then
        raise
          (Mpi_error (Printf.sprintf "rank %d returned without MPI_Finalize" rank));
      rs.rs_finished <- true
    in
    Effect.Deep.match_with body ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Mpi_call call ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    handle_call st rank call k)
            | _ -> None);
      }
  in
  let resume rank v =
    let rs = st.ranks.(rank) in
    rs.rs_clock <- Float.max rs.rs_clock st.now;
    (match rs.rs_current with
    | Some call -> fire_return st rank rs.rs_clock call v
    | None -> ());
    rs.rs_current <- None;
    match st.fibers.(rank) with
    | None -> raise (Mpi_error (Printf.sprintf "resume of idle rank %d" rank))
    | Some k ->
        st.fibers.(rank) <- None;
        Effect.Deep.continue k v
  in
  for rank = 0 to nranks - 1 do
    schedule st ~time:0. (E_start rank)
  done;
  let rec loop () =
    match Util.Pqueue.pop st.events with
    | None ->
        if Array.exists (fun rs -> not rs.rs_finished) st.ranks then
          raise (Deadlock (deadlock_report st))
    | Some (t, ev) ->
        st.now <- t;
        st.n_events <- st.n_events + 1;
        (* Watchdog: a run that exceeds its budgets is reported as Stalled
           with a per-rank diagnostic instead of spinning forever. *)
        (match st.max_events with
        | Some budget when st.n_events > budget ->
            raise
              (Stalled
                 (stalled_report st
                    ~reason:
                      (Printf.sprintf "event budget exhausted (max_events = %d)"
                         budget)))
        | _ -> ());
        (match st.max_virtual_time with
        | Some budget when t > budget ->
            raise
              (Stalled
                 (stalled_report st
                    ~reason:
                      (Printf.sprintf
                         "virtual-time budget exhausted (max_virtual_time = \
                          %gs)"
                         budget)))
        | _ -> ());
        (match ev with
        | E_start rank -> start_fiber rank
        | E_resume (rank, v) -> resume rank v
        | E_deliver m -> deliver st m
        | E_retransmit (m, attempt) -> transmit st m ~depart:t ~attempt);
        if st.obs.Obs.Sink.enabled && st.n_events mod obs_sample_every = 0
        then obs_sample st;
        loop ()
  in
  loop ();
  if st.obs.Obs.Sink.enabled then obs_sample st;
  let finish_times = Array.map (fun rs -> rs.rs_clock) st.ranks in
  let fstats =
    match st.fault with
    | Some f -> Fault.stats f
    | None -> { Fault.retries = 0; timeouts = 0; dropped = 0 }
  in
  {
    elapsed = Array.fold_left Float.max 0. finish_times;
    finish_times;
    events = st.n_events;
    messages = st.n_msgs;
    p2p_bytes = st.n_bytes;
    unexpected = st.n_unexpected;
    flow_stalls = st.n_stalls;
    retries = fstats.retries;
    timeouts = fstats.timeouts;
    dropped = fstats.dropped;
  }
