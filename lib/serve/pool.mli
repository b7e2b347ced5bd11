(** The serve scheduler: a deterministic, I/O-free state machine that
    supervises N persistent worker slots ([N >= 1]; [benchgen serve]
    defaults to one).

    This module never forks, reads, writes, sleeps, or looks at a
    clock.  Every call takes [~now] and returns a list of {!action}s
    for the environment to perform; everything the environment observes
    (a worker came up, an attempt finished, a worker died) comes back
    as an {!event}.  Two environments drive it:

    - {!Server} performs actions against real forked {!Worker}
      processes and feeds events from its [select] loop, with [~now]
      read from {!Util.Clock};
    - {!Sim} performs them against scripted synthetic workers on a
      virtual clock, which is how every policy below is unit-tested
      and how [Check.Servefuzz]'s scenarios run — same seed,
      byte-identical transcript.

    Supervision semantics:

    - {e Admission}: at most [queue_limit] live jobs (queued, awaiting
      retry, or running); beyond it a submission is shed with
      [Rejected Queue_full], and after {!begin_drain} with [Rejected
      Draining].
    - {e Dispatch}: FIFO job order onto the lowest-numbered idle
      worker.
    - {e Retry policy} (per job, from its {!Policy.t}): a failed
      attempt classified retryable is re-queued after a seeded,
      jittered exponential backoff until [max_retries] is spent; each
      attempt runs at the policy's escalated recovery level, and a
      success reports the level that worked.
    - {e Deadline}: a busy worker that exceeds the job's per-attempt
      deadline is [SIGKILL]ed and immediately respawned; the attempt
      counts as [A_timeout] (not as a worker death — the worker was
      healthy, the job was slow).
    - {e Restart backoff}: a worker slot that dies abnormally is
      respawned after an exponential backoff (reset by a completed
      attempt).
    - {e Circuit breaker}: a slot that dies [breaker_deaths] times
      within [breaker_window_s] is {e parked} for
      [breaker_cooldown_s]; the pool degrades to the remaining slots.
      On unparking the slot runs one {e probation} attempt: dying
      again re-parks it immediately.
    - {e Poison quarantine}: a job whose attempts crashed
      [poison_crashes] {e distinct} workers is failed with a typed
      ["poisoned"] error instead of burning the rest of the pool. *)

(** How one attempt ended, as the environment reports it. *)
type attempt_outcome =
  | A_ok of Protocol.ok_info
  | A_error of Protocol.error_info
  | A_timeout  (** the attempt hit its wall-clock deadline and was killed *)
  | A_crashed of string  (** the attempt died abnormally *)

(** Worker-pool supervision knobs (per-job policy lives in
    {!Policy.t} on each submit). *)
type wpolicy = {
  workers : int;  (** worker slots (>= 1) *)
  restart_backoff_base_s : float;
  restart_backoff_factor : float;
  restart_backoff_max_s : float;
      (** respawn delay after the k-th consecutive abnormal death:
          [base * factor^(k-1)], capped *)
  breaker_deaths : int;  (** deaths within the window that trip the breaker *)
  breaker_window_s : float;
  breaker_cooldown_s : float;  (** how long a tripped slot stays parked *)
  poison_crashes : int;
      (** distinct workers a single job may crash before it is
          quarantined (default 2) *)
}

val default_wpolicy : wpolicy

(** What the environment must do, in list order. *)
type action =
  | Spawn of { wid : int }
      (** start a worker process for this slot; feed [E_spawned] when
          it is up *)
  | Kill of { wid : int }
      (** [SIGKILL] the slot's process (deadline or shutdown); no
          [E_died] should follow — the pool already accounted for it *)
  | Dispatch of {
      wid : int;
      sub : Protocol.submit;
      attempt : int;  (** 0-based *)
      recovery : Benchgen.Pipeline.recovery;
      deadline_s : float option;
    }  (** send the attempt to the slot's worker *)
  | Respond of Protocol.response
      (** deliver to the job's submitter (terminal responses only) *)
  | Note of string  (** log line (never part of the wire transcript) *)

(** What the environment observed. *)
type event =
  | E_spawned of { wid : int }  (** the slot's worker process is up *)
  | E_result of { wid : int; outcome : attempt_outcome }
      (** the worker returned an attempt result (it survives; an
          [A_crashed] here means the attempt raised, not that the
          process died) *)
  | E_died of { wid : int; detail : string }
      (** the worker process died abnormally (EOF/EPIPE on its pipe);
          counts toward the breaker, and toward job poisoning if the
          slot was busy *)

type t

(** [create ~wpolicy ()].  [queue_limit] (default 64) bounds {e live}
    jobs (queued + awaiting-retry + running); [seed] drives per-job
    backoff jitter via {!Util.Rng.split}; [metrics] accumulates
    [serve.*] and [serve.pool.*]. *)
val create :
  ?queue_limit:int ->
  ?seed:int ->
  ?metrics:Obs.Metrics.t ->
  wpolicy:wpolicy ->
  unit ->
  t

(** Initial [Spawn] for every slot.  Call once, before any events. *)
val boot : t -> action list

(** Admission: returns the [Accepted]/[Rejected] response for the
    submitter plus any dispatch actions.  Shedding counts {e live}
    jobs; a duplicate live id is [Bad_request]. *)
val submit : t -> now:float -> Protocol.submit -> Protocol.response * action list

(** Record an out-of-band rejection (parse failure, oversized line,
    connection/inflight caps) in the counters. *)
val reject : t -> ?id:string -> Protocol.reject_reason -> Protocol.response

val handle : t -> now:float -> event -> action list

(** Fire everything due at [now]: deadline kills, restart-backoff and
    breaker-cooldown expiries, retry-backoff releases, then dispatch.
    Idempotent when nothing is due. *)
val tick : t -> now:float -> action list

(** Earliest future instant at which {!tick} has work ([None]: only an
    event can change anything).  Strictly greater than the last [tick]
    time — event loops use it as their select timeout. *)
val next_wakeup : t -> float option

(** Stop admitting; running and queued jobs finish normally. *)
val begin_drain : t -> unit

val draining : t -> bool

(** No live jobs (nothing queued, delayed, or running). *)
val idle : t -> bool

(** Queued + awaiting-retry jobs (excludes running). *)
val queue_length : t -> int

val queue_limit : t -> int
val health : t -> Protocol.response
val drained_summary : t -> cancelled:int -> Protocol.response

(** Cancel every live job ([Cancelled] responses in queue order, then
    the [Drained] summary) and [Kill] every running worker.  The pool
    drains afterwards; the environment should stop pumping. *)
val shutdown : t -> now:float -> Protocol.response list * action list

val metrics : t -> Obs.Metrics.t

(** ["starting"] | ["idle"] | ["busy"] | ["backoff"] | ["parked"] —
    for tests and health logging. *)
val worker_state_name : t -> int -> string

(** {2 Simulated environment}

    Drives a pool entirely on virtual time against scripted worker
    behaviors.  Deterministic: same pool seed + script + timeline produce the same
    timestamped outcomes, byte for byte. *)
module Sim : sig
  (** How a scripted worker handles one dispatched attempt. *)
  type behavior =
    | B_ok of { dur : float; statements : int }
    | B_error of { dur : float; error : Protocol.error_info }
    | B_crash of { dur : float; detail : string }
        (** the worker process dies [dur] after dispatch *)
    | B_hang  (** never answers; only a deadline kill frees the slot *)

  type script =
    Protocol.submit ->
    attempt:int ->
    recovery:Benchgen.Pipeline.recovery ->
    behavior

  type input =
    | I_submit of Protocol.submit
    | I_kill of int  (** kill slot [wid]'s worker out of band *)
    | I_health
    | I_drain
    | I_shutdown

  (** [run ~pool ~script ~timeline ()] — boot the pool, play the
      (time-ascending) timeline, pump events until quiescent, then (if
      draining and idle) append the [Drained] summary.  Returns every
      response with its virtual timestamp, in emission order.
      [spawn_delay_s] (default 0.01) is the simulated worker startup
      time. *)
  val run :
    ?spawn_delay_s:float ->
    pool:t ->
    script:script ->
    timeline:(float * input) list ->
    unit ->
    (float * Protocol.response) list
end
