(** Per-job supervision policy for serve mode.

    A policy bounds one job's resource use (wall-clock deadline per
    attempt), its failure handling (bounded retries with exponential
    backoff and seeded jitter), and its degradation path (the recovery
    level escalates [`Strict] → [`Salvage] → [`Best_effort] across
    retries, so a job whose strict generation fails can still produce a
    runnable — if shorter — benchmark instead of failing hard).

    All randomness (jitter) flows through an explicit {!Util.Rng.t}, so
    a pool with a fixed seed produces a bit-identical backoff
    schedule — the serve fuzzer and the unit tests rely on this. *)

type t = {
  deadline_s : float option;
      (** wall-clock budget for {e each attempt}; the attempt's worker is
          killed when it is exceeded.  [None]
          disables the deadline. *)
  max_retries : int;  (** retries after the first attempt (so a job runs
          at most [max_retries + 1] times) *)
  backoff_base_s : float;  (** delay before the first retry *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  backoff_max_s : float;  (** cap on the un-jittered delay *)
  jitter : float;
      (** jitter fraction in [0, 1]: the delay is multiplied by a
          uniform draw from [1, 1 + jitter) *)
  escalate : bool;
      (** escalate the recovery level by one step per retry (saturating
          at [`Best_effort]); when [false] every attempt runs at
          [recovery] *)
  recovery : Benchgen.Pipeline.recovery;  (** recovery level of the first attempt *)
}

(** deadline [None]; 2 retries; backoff 50 ms doubling, capped at 5 s,
    jitter 0.25; escalation on; [`Strict] first attempt. *)
val default : t

(** [backoff_s t ~rng ~attempt] is the delay before retry [attempt]
    (1-based: [1] precedes the second run of the job):
    [min backoff_max_s (backoff_base_s * backoff_factor^(attempt-1))]
    times a jitter draw from [rng].
    @raise Invalid_argument if [attempt < 1]. *)
val backoff_s : t -> rng:Util.Rng.t -> attempt:int -> float

(** Recovery level of attempt [attempt] (0-based: [0] is the first
    run): [recovery] stepped [attempt] levels toward [`Best_effort]
    when [escalate], else [recovery]. *)
val recovery_for_attempt : t -> attempt:int -> Benchgen.Pipeline.recovery

(** [override_from_json t j] reads the optional policy fields of a
    submit request object ([deadline_s], [max_retries],
    [backoff_base_s], [backoff_factor], [backoff_max_s], [jitter],
    [escalate], [recovery]) on top of [t].  Unknown recovery spellings
    and ill-typed fields are errors. *)
val override_from_json : t -> Obs.Json.t -> (t, string) result
