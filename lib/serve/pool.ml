module Pipeline = Benchgen.Pipeline

type wpolicy = {
  workers : int;
  restart_backoff_base_s : float;
  restart_backoff_factor : float;
  restart_backoff_max_s : float;
  breaker_deaths : int;
  breaker_window_s : float;
  breaker_cooldown_s : float;
  poison_crashes : int;
}

let default_wpolicy =
  {
    workers = 4;
    restart_backoff_base_s = 0.1;
    restart_backoff_factor = 2.0;
    restart_backoff_max_s = 5.0;
    breaker_deaths = 3;
    breaker_window_s = 30.0;
    breaker_cooldown_s = 60.0;
    poison_crashes = 2;
  }

type attempt_outcome =
  | A_ok of Protocol.ok_info
  | A_error of Protocol.error_info
  | A_timeout
  | A_crashed of string

let attempt_error ~(policy : Policy.t) ~path ~recovery = function
  | A_error e -> e
  | A_timeout ->
      {
        Protocol.e_tag = "deadline_exceeded";
        e_path = path;
        e_retryable = true;
        e_detail =
          Printf.sprintf
            "attempt exceeded its %.3f s wall-clock deadline (recovery %s) \
             and was killed"
            (Option.value ~default:0. policy.Policy.deadline_s)
            (Pipeline.recovery_to_string recovery);
      }
  | A_crashed msg ->
      {
        Protocol.e_tag = "crashed";
        e_path = path;
        e_retryable = true;
        e_detail = "worker died abnormally: " ^ msg;
      }
  | A_ok _ -> invalid_arg "Pool.attempt_error: A_ok is not a failure"

type action =
  | Spawn of { wid : int }
  | Kill of { wid : int }
  | Dispatch of {
      wid : int;
      sub : Protocol.submit;
      attempt : int;
      recovery : Pipeline.recovery;
      deadline_s : float option;
    }
  | Respond of Protocol.response
  | Note of string

type event =
  | E_spawned of { wid : int }
  | E_result of { wid : int; outcome : attempt_outcome }
  | E_died of { wid : int; detail : string }

type job = {
  j_sub : Protocol.submit;
  j_rng : Util.Rng.t;  (** per-job backoff-jitter stream *)
  j_started : float;
  mutable j_attempt : int;  (** attempts completed so far *)
  mutable j_crashed : int list;  (** distinct wids this job took down *)
}

type wstate =
  | W_starting
  | W_idle
  | W_busy of {
      job : job;
      deadline_at : float option;
      recovery : Pipeline.recovery;
    }
  | W_backoff of { until : float }
  | W_parked of { until : float }

type worker = {
  wid : int;
  mutable state : wstate;
  mutable deaths : float list;  (** abnormal-death times, newest first *)
  mutable deaths_row : int;  (** consecutive; feeds the restart backoff *)
  mutable probation : bool;  (** one-strike period after unparking *)
}

type t = {
  wpolicy : wpolicy;
  q_limit : int;
  metrics : Obs.Metrics.t;
  rng : Util.Rng.t;  (** parent stream; each job splits a child *)
  ws : worker array;
  ready : job Queue.t;
  mutable delayed : (float * job) list;  (** awaiting retry; time-ascending *)
  mutable seq : int;
  mutable is_draining : bool;
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
  mutable cancelled : int;
  mutable depth_max : int;
}

let create ?(queue_limit = 64) ?(seed = 1) ?metrics ~wpolicy () =
  if queue_limit < 1 then invalid_arg "Pool.create: queue_limit < 1";
  if wpolicy.workers < 1 then invalid_arg "Pool.create: workers < 1";
  if wpolicy.poison_crashes < 1 then
    invalid_arg "Pool.create: poison_crashes < 1";
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let t =
    {
      wpolicy;
      q_limit = queue_limit;
      metrics;
      rng = Util.Rng.create ~seed;
      ws =
        Array.init wpolicy.workers (fun wid ->
            {
              wid;
              state = W_starting;
              deaths = [];
              deaths_row = 0;
              probation = false;
            });
      ready = Queue.create ();
      delayed = [];
      seq = 0;
      is_draining = false;
      submitted = 0;
      completed = 0;
      failed = 0;
      rejected = 0;
      cancelled = 0;
      depth_max = 0;
    }
  in
  Obs.Metrics.set metrics "serve.pool.workers" (float_of_int wpolicy.workers);
  t

let queue_length t = Queue.length t.ready + List.length t.delayed
let queue_limit t = t.q_limit
let metrics t = t.metrics
let draining t = t.is_draining
let begin_drain t = t.is_draining <- true

let busy_count t =
  Array.fold_left
    (fun n w -> match w.state with W_busy _ -> n + 1 | _ -> n)
    0 t.ws

(* Admission bounds *live* jobs — queued, awaiting retry, and running —
   so a retry re-entering the queue can never overflow it. *)
let live t = queue_length t + busy_count t
let idle t = live t = 0

let set_depth_gauges t =
  let d = queue_length t in
  if d > t.depth_max then t.depth_max <- d;
  Obs.Metrics.set t.metrics "serve.queue_depth" (float_of_int d);
  Obs.Metrics.set t.metrics "serve.queue_depth_max" (float_of_int t.depth_max)

let set_pool_gauges t =
  let busy = ref 0 and idle = ref 0 and parked = ref 0 and down = ref 0 in
  Array.iter
    (fun w ->
      match w.state with
      | W_busy _ -> incr busy
      | W_idle -> incr idle
      | W_parked _ -> incr parked
      | W_starting | W_backoff _ -> incr down)
    t.ws;
  Obs.Metrics.set t.metrics "serve.pool.busy" (float_of_int !busy);
  Obs.Metrics.set t.metrics "serve.pool.idle" (float_of_int !idle);
  Obs.Metrics.set t.metrics "serve.pool.parked" (float_of_int !parked);
  Obs.Metrics.set t.metrics "serve.pool.down" (float_of_int !down)

let worker_state_name t wid =
  match t.ws.(wid).state with
  | W_starting -> "starting"
  | W_idle -> "idle"
  | W_busy _ -> "busy"
  | W_backoff _ -> "backoff"
  | W_parked _ -> "parked"

let boot t =
  set_pool_gauges t;
  Array.to_list (Array.map (fun w -> Spawn { wid = w.wid }) t.ws)

(* Stable time-ascending insert: equal release times keep FIFO order. *)
let rec insert_by_time l ((at, _) as entry) =
  match l with
  | [] -> [ entry ]
  | ((at0, _) as hd) :: tl ->
      if at < at0 then entry :: l else hd :: insert_by_time tl entry

let reject t ?id reason =
  t.rejected <- t.rejected + 1;
  Obs.Metrics.inc t.metrics
    ~labels:[ ("reason", Protocol.reject_tag reason) ]
    "serve.rejected";
  Protocol.Rejected { id; reason }

let live_ids t =
  let ids = ref [] in
  Queue.iter (fun j -> ids := j.j_sub.Protocol.sub_id :: !ids) t.ready;
  List.iter (fun (_, j) -> ids := j.j_sub.Protocol.sub_id :: !ids) t.delayed;
  Array.iter
    (fun w ->
      match w.state with
      | W_busy { job; _ } -> ids := job.j_sub.Protocol.sub_id :: !ids
      | _ -> ())
    t.ws;
  !ids

(* FIFO job onto the lowest-numbered idle worker. *)
let dispatch_ready t ~now =
  let acts = ref [] in
  let idle_wid () =
    let r = ref None in
    Array.iter
      (fun w ->
        if !r = None && w.state = W_idle then r := Some w.wid)
      t.ws;
    !r
  in
  let continue = ref true in
  while !continue do
    match (Queue.is_empty t.ready, idle_wid ()) with
    | false, Some wid ->
        let job = Queue.take t.ready in
        let policy = job.j_sub.Protocol.sub_policy in
        let recovery =
          Policy.recovery_for_attempt policy ~attempt:job.j_attempt
        in
        let deadline_at =
          Option.map (fun d -> now +. d) policy.Policy.deadline_s
        in
        t.ws.(wid).state <- W_busy { job; deadline_at; recovery };
        Obs.Metrics.inc t.metrics "serve.attempts";
        Obs.Metrics.inc t.metrics "serve.pool.dispatches";
        acts :=
          Dispatch
            {
              wid;
              sub = job.j_sub;
              attempt = job.j_attempt;
              recovery;
              deadline_s = policy.Policy.deadline_s;
            }
          :: !acts
    | _ -> continue := false
  done;
  set_depth_gauges t;
  set_pool_gauges t;
  List.rev !acts

let submit t ~now (sub : Protocol.submit) =
  t.submitted <- t.submitted + 1;
  Obs.Metrics.inc t.metrics "serve.submitted";
  if t.is_draining then (reject t ~id:sub.sub_id Protocol.Draining, [])
  else if live t >= t.q_limit then begin
    Obs.Metrics.inc t.metrics "serve.sheds";
    (reject t ~id:sub.sub_id Protocol.Queue_full, [])
  end
  else if List.mem sub.sub_id (live_ids t) then
    ( reject t ~id:sub.sub_id
        (Protocol.Bad_request
           (Printf.sprintf "job id %S is already live" sub.sub_id)),
      [] )
  else begin
    let job =
      {
        j_sub = sub;
        j_rng = Util.Rng.split t.rng ~index:t.seq;
        j_started = now;
        j_attempt = 0;
        j_crashed = [];
      }
    in
    t.seq <- t.seq + 1;
    Queue.add job t.ready;
    Obs.Metrics.inc t.metrics "serve.accepted";
    set_depth_gauges t;
    let resp =
      Protocol.Accepted { id = sub.sub_id; queue_depth = queue_length t }
    in
    (resp, dispatch_ready t ~now)
  end

(* ------------------------------------------------------------------ *)
(* Attempt resolution (shared by results, deaths, and deadline kills)  *)

let job_terminal t ~now job resp =
  let labels = [ ("id", job.j_sub.Protocol.sub_id) ] in
  Obs.Metrics.set t.metrics ~labels "serve.job.attempts"
    (float_of_int job.j_attempt);
  Obs.Metrics.set t.metrics ~labels "serve.job.elapsed_s"
    (now -. job.j_started);
  Respond resp

(* The job's just-finished attempt failed with [error]; retry with
   backoff if the policy allows, otherwise answer terminally. *)
let resolve_failure t ~now job (error : Protocol.error_info) =
  let policy = job.j_sub.Protocol.sub_policy in
  let id = job.j_sub.Protocol.sub_id in
  if error.e_retryable && job.j_attempt - 1 < policy.Policy.max_retries
  then begin
    let delay = Policy.backoff_s policy ~rng:job.j_rng ~attempt:job.j_attempt in
    Obs.Metrics.inc t.metrics "serve.retries";
    Obs.Metrics.observe t.metrics "serve.backoff_s" delay;
    t.delayed <- insert_by_time t.delayed (now +. delay, job);
    set_depth_gauges t;
    []
  end
  else begin
    t.failed <- t.failed + 1;
    Obs.Metrics.inc t.metrics
      ~labels:[ ("class", error.Protocol.e_tag) ]
      "serve.outcomes";
    [
      job_terminal t ~now job
        (Protocol.Result_error { id; attempts = job.j_attempt; error });
    ]
  end

let classify t ~now job ~recovery outcome =
  (match outcome with
  | A_timeout -> Obs.Metrics.inc t.metrics "serve.deadline_kills"
  | A_crashed _ -> Obs.Metrics.inc t.metrics "serve.crashes"
  | _ -> ());
  match outcome with
  | A_ok info ->
      t.completed <- t.completed + 1;
      Obs.Metrics.inc t.metrics ~labels:[ ("class", "ok") ] "serve.outcomes";
      let info =
        {
          info with
          Protocol.ok_recovery = Pipeline.recovery_to_string recovery;
        }
      in
      [
        job_terminal t ~now job
          (Protocol.Result_ok
             {
               id = job.j_sub.Protocol.sub_id;
               attempts = job.j_attempt;
               info;
             });
      ]
  | outcome ->
      let error =
        attempt_error
          ~policy:job.j_sub.Protocol.sub_policy
          ~path:(Protocol.submit_path job.j_sub)
          ~recovery outcome
      in
      resolve_failure t ~now job error

(* ------------------------------------------------------------------ *)
(* Worker-death bookkeeping: breaker + restart backoff                 *)

let restart_delay t (w : worker) =
  let p = t.wpolicy in
  let raw =
    p.restart_backoff_base_s
    *. (p.restart_backoff_factor ** float_of_int (max 0 (w.deaths_row - 1)))
  in
  Float.min p.restart_backoff_max_s raw

let record_death t ~now (w : worker) =
  Obs.Metrics.inc t.metrics "serve.pool.deaths";
  w.deaths_row <- w.deaths_row + 1;
  w.deaths <-
    now
    :: List.filter (fun d -> now -. d <= t.wpolicy.breaker_window_s) w.deaths;
  if w.probation || List.length w.deaths >= t.wpolicy.breaker_deaths then begin
    let until = now +. t.wpolicy.breaker_cooldown_s in
    w.probation <- false;
    w.state <- W_parked { until };
    Obs.Metrics.inc t.metrics "serve.pool.breaker_trips";
    [
      Note
        (Printf.sprintf
           "pool: worker %d parked for %.1fs (%d deaths in %.0fs window)"
           w.wid t.wpolicy.breaker_cooldown_s (List.length w.deaths)
           t.wpolicy.breaker_window_s);
    ]
  end
  else begin
    let delay = restart_delay t w in
    w.state <- W_backoff { until = now +. delay };
    [
      Note
        (Printf.sprintf "pool: worker %d died; restarting in %.3fs" w.wid
           delay);
    ]
  end

let poison_error job =
  let wids = List.sort compare job.j_crashed in
  {
    Protocol.e_tag = "poisoned";
    e_path = Protocol.submit_path job.j_sub;
    e_retryable = false;
    e_detail =
      Printf.sprintf
        "job crashed %d distinct workers (%s); quarantined to protect the pool"
        (List.length wids)
        (String.concat ", "
           (List.map (fun w -> "worker " ^ string_of_int w) wids));
  }

let handle t ~now event =
  match event with
  | E_spawned { wid } ->
      let w = t.ws.(wid) in
      (match w.state with
      | W_starting -> w.state <- W_idle
      | _ -> ());
      set_pool_gauges t;
      dispatch_ready t ~now
  | E_result { wid; outcome } -> (
      let w = t.ws.(wid) in
      match w.state with
      | W_busy { job; recovery; _ } ->
          w.state <- W_idle;
          (* a completed attempt proves the slot healthy *)
          w.deaths_row <- 0;
          w.probation <- false;
          job.j_attempt <- job.j_attempt + 1;
          let responds = classify t ~now job ~recovery outcome in
          set_pool_gauges t;
          responds @ dispatch_ready t ~now
      | _ ->
          [
            Note
              (Printf.sprintf
                 "pool: dropping result from %s worker %d"
                 (worker_state_name t wid) wid);
          ])
  | E_died { wid; detail } -> (
      let w = t.ws.(wid) in
      match w.state with
      | W_backoff _ | W_parked _ ->
          (* already accounted down; a late EOF changes nothing *)
          [ Note (Printf.sprintf "pool: stale death of worker %d ignored" wid) ]
      | (W_starting | W_idle | W_busy _) as prev ->
          let job_responds =
            match prev with
            | W_busy { job; recovery; _ } ->
                Obs.Metrics.inc t.metrics "serve.crashes";
                job.j_attempt <- job.j_attempt + 1;
                if not (List.mem wid job.j_crashed) then
                  job.j_crashed <- wid :: job.j_crashed;
                if List.length job.j_crashed >= t.wpolicy.poison_crashes
                then begin
                  t.failed <- t.failed + 1;
                  Obs.Metrics.inc t.metrics
                    ~labels:[ ("class", "poisoned") ]
                    "serve.outcomes";
                  Obs.Metrics.inc t.metrics "serve.pool.quarantined";
                  let error = poison_error job in
                  Note
                    (Printf.sprintf "pool: job %s quarantined: %s"
                       job.j_sub.Protocol.sub_id error.Protocol.e_detail)
                  :: [
                       job_terminal t ~now job
                         (Protocol.Result_error
                            {
                              id = job.j_sub.Protocol.sub_id;
                              attempts = job.j_attempt;
                              error;
                            });
                     ]
                end
                else
                  let error =
                    attempt_error
                      ~policy:job.j_sub.Protocol.sub_policy
                      ~path:(Protocol.submit_path job.j_sub)
                      ~recovery (A_crashed detail)
                  in
                  resolve_failure t ~now job error
            | _ -> []
          in
          let breaker_notes = record_death t ~now w in
          set_pool_gauges t;
          job_responds @ breaker_notes @ dispatch_ready t ~now)

let tick t ~now =
  let acts = ref [] in
  let push a = acts := a :: !acts in
  (* 1. release retries whose backoff elapsed (time order = FIFO) *)
  let ripe, later = List.partition (fun (at, _) -> at <= now) t.delayed in
  t.delayed <- later;
  List.iter (fun (_, job) -> Queue.add job t.ready) ripe;
  (* 2. deadline kills: the worker was healthy, the job was slow — the
     slot respawns immediately and the kill is not a breaker death *)
  Array.iter
    (fun w ->
      match w.state with
      | W_busy { job; deadline_at = Some d; recovery } when d <= now ->
          push (Kill { wid = w.wid });
          push (Spawn { wid = w.wid });
          w.state <- W_starting;
          Obs.Metrics.inc t.metrics "serve.pool.restarts";
          push
            (Note
               (Printf.sprintf
                  "pool: worker %d killed at job %s's deadline; respawning"
                  w.wid job.j_sub.Protocol.sub_id));
          job.j_attempt <- job.j_attempt + 1;
          List.iter push (classify t ~now job ~recovery A_timeout)
      | _ -> ())
    t.ws;
  (* 3. restart-backoff and breaker-cooldown expiries *)
  Array.iter
    (fun w ->
      match w.state with
      | W_backoff { until } when until <= now ->
          w.state <- W_starting;
          Obs.Metrics.inc t.metrics "serve.pool.restarts";
          push (Spawn { wid = w.wid })
      | W_parked { until } when until <= now ->
          w.state <- W_starting;
          w.probation <- true;
          Obs.Metrics.inc t.metrics "serve.pool.restarts";
          push
            (Note
               (Printf.sprintf
                  "pool: worker %d unparked on probation" w.wid));
          push (Spawn { wid = w.wid })
      | _ -> ())
    t.ws;
  set_pool_gauges t;
  List.rev !acts @ dispatch_ready t ~now

let next_wakeup t =
  let e = Util.Clock.earliest in
  let delayed = match t.delayed with [] -> None | (at, _) :: _ -> Some at in
  Array.fold_left
    (fun acc w ->
      match w.state with
      | W_busy { deadline_at; _ } -> e acc deadline_at
      | W_backoff { until } | W_parked { until } -> e acc (Some until)
      | W_starting | W_idle -> acc)
    delayed t.ws

let health t =
  Protocol.Health_report
    {
      queue_depth = queue_length t;
      queue_limit = t.q_limit;
      draining = t.is_draining;
      submitted = t.submitted;
      completed = t.completed;
      failed = t.failed;
      rejected = t.rejected;
      cancelled = t.cancelled;
    }

let drained_summary t ~cancelled =
  Protocol.Drained { jobs_run = t.completed + t.failed; cancelled }

let shutdown t ~now =
  ignore now;
  begin_drain t;
  let cancels = ref [] in
  let cancel (job : job) =
    t.cancelled <- t.cancelled + 1;
    Obs.Metrics.inc t.metrics "serve.cancelled";
    Protocol.Cancelled { id = job.j_sub.Protocol.sub_id }
  in
  Queue.iter (fun j -> cancels := cancel j :: !cancels) t.ready;
  Queue.clear t.ready;
  List.iter (fun (_, j) -> cancels := cancel j :: !cancels) t.delayed;
  t.delayed <- [];
  let kills = ref [] in
  Array.iter
    (fun w ->
      match w.state with
      | W_busy { job; _ } ->
          cancels := cancel job :: !cancels;
          kills := Kill { wid = w.wid } :: !kills;
          w.state <- W_starting
      | _ -> ())
    t.ws;
  set_depth_gauges t;
  set_pool_gauges t;
  let cancels = List.rev !cancels in
  ( cancels @ [ drained_summary t ~cancelled:(List.length cancels) ],
    List.rev !kills )

(* ------------------------------------------------------------------ *)
(* Simulated environment                                               *)

module Sim = struct
  type behavior =
    | B_ok of { dur : float; statements : int }
    | B_error of { dur : float; error : Protocol.error_info }
    | B_crash of { dur : float; detail : string }
    | B_hang

  type script =
    Protocol.submit ->
    attempt:int ->
    recovery:Pipeline.recovery ->
    behavior

  type input =
    | I_submit of Protocol.submit
    | I_kill of int
    | I_health
    | I_drain
    | I_shutdown

  type op = O_complete of attempt_outcome | O_die of string

  let run ?(spawn_delay_s = 0.01) ~pool ~script ~timeline () =
    let nw = Array.length pool.ws in
    let outcomes = ref [] in
    let now = ref 0. in
    let spawns = ref [] in
    let ops : (float * op) option array = Array.make nw None in
    let finished = ref false in
    let record r = outcomes := (!now, r) :: !outcomes in
    let perform acts =
      List.iter
        (fun a ->
          match a with
          | Spawn { wid } ->
              spawns := insert_by_time !spawns (!now +. spawn_delay_s, wid)
          | Kill { wid } -> ops.(wid) <- None
          | Dispatch { wid; sub; attempt; recovery; deadline_s = _ } -> (
              match script sub ~attempt ~recovery with
              | B_ok { dur; statements } ->
                  let info =
                    {
                      Protocol.ok_statements = statements;
                      ok_final_rsds = statements / 2;
                      ok_recovery = Pipeline.recovery_to_string recovery;
                      ok_warnings = [];
                      ok_text = None;
                      ok_out = None;
                    }
                  in
                  ops.(wid) <-
                    Some (!now +. dur, O_complete (A_ok info))
              | B_error { dur; error } ->
                  ops.(wid) <-
                    Some (!now +. dur, O_complete (A_error error))
              | B_crash { dur; detail } ->
                  ops.(wid) <- Some (!now +. dur, O_die detail)
              | B_hang -> ops.(wid) <- None)
          | Respond r -> record r
          | Note _ -> ())
        acts
    in
    perform (boot pool);
    let timeline = ref timeline in
    (* Candidate sources, ranked for deterministic same-time ordering:
       pool wakeups fire before spawn completions, before worker ops,
       before external inputs. *)
    let pick () =
      let best = ref None in
      let consider time rank payload =
        match !best with
        | Some (bt, br, _) when bt < time || (bt = time && br <= rank) -> ()
        | _ -> best := Some (time, rank, payload)
      in
      (match next_wakeup pool with
      | Some at -> consider at 0 `Tick
      | None -> ());
      (match !spawns with
      | (at, wid) :: _ -> consider at 1 (`Spawn wid)
      | [] -> ());
      Array.iteri
        (fun wid slot ->
          match slot with
          | Some (at, op) -> consider at 2 (`Op (wid, op))
          | None -> ())
        ops;
      (match !timeline with
      | (at, inp) :: _ -> consider at 3 (`Input inp)
      | [] -> ());
      !best
    in
    let alive wid =
      match pool.ws.(wid).state with
      | W_starting | W_idle | W_busy _ -> true
      | W_backoff _ | W_parked _ -> false
    in
    let guard = ref 0 in
    let quiescent = ref false in
    while (not !quiescent) && not !finished do
      incr guard;
      if !guard > 500_000 then
        failwith "Pool.Sim.run: scenario does not quiesce";
      match pick () with
      | None -> quiescent := true
      | Some (at, _, payload) -> (
          now := Float.max !now at;
          match payload with
          | `Tick -> perform (tick pool ~now:!now)
          | `Spawn wid ->
              spawns := List.tl !spawns;
              perform (handle pool ~now:!now (E_spawned { wid }))
          | `Op (wid, op) ->
              ops.(wid) <- None;
              perform
                (handle pool ~now:!now
                   (match op with
                   | O_complete outcome -> E_result { wid; outcome }
                   | O_die detail -> E_died { wid; detail }))
          | `Input inp -> (
              timeline := List.tl !timeline;
              match inp with
              | I_submit sub ->
                  let resp, acts = submit pool ~now:!now sub in
                  record resp;
                  perform acts
              | I_kill wid ->
                  ops.(wid) <- None;
                  spawns := List.filter (fun (_, w) -> w <> wid) !spawns;
                  if alive wid then
                    perform
                      (handle pool ~now:!now
                         (E_died { wid; detail = "killed by signal 9" }))
              | I_health -> record (health pool)
              | I_drain -> begin_drain pool
              | I_shutdown ->
                  let responses, acts = shutdown pool ~now:!now in
                  List.iter record responses;
                  perform acts;
                  finished := true))
    done;
    if draining pool && idle pool && not !finished then
      record (drained_summary pool ~cancelled:0);
    List.rev !outcomes
end
