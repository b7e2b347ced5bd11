(** Seeded service fuzzer for the serve scheduler
    ([benchgen fuzz --mode serve [--workers N]]).

    Each seed drives a {!Serve.Pool} with [N] worker slots (default 1,
    as [benchgen serve] runs) through {!Serve.Pool.Sim} on virtual
    time.  Jobs are drawn from six kinds — clean, flaky (fails until
    recovery escalates to best-effort), fatal (always fails), hanging
    (never answers; freed only by the deadline kill), crash-once (kills
    its first worker, then succeeds on the retry) and poison (kills
    every worker it touches and must be quarantined once it has crashed
    two distinct workers) — interleaved with out-of-band worker-kill
    injections, health probes, and a final drain or shutdown.  The
    transcript is timestamped, so determinism also pins the virtual
    schedule (dispatch order, retry and restart backoff, breaker
    trips).

    The contract asserted on the full transcript:
    - {b typed responses only}: every emitted line re-parses as a
      {!Serve.Protocol.response} and round-trips byte-identically;
    - {b no lost jobs}: every accepted submission gets exactly one
      terminal response (result or cancelled); every rejected one gets
      none;
    - {b bounded queue}: the queue never exceeds its configured limit
      (high-water checked via the [serve.queue_depth_max] gauge);
    - {b clean drain}: after drain/shutdown no live jobs remain and
      the summary's counts agree with the responses seen;
    - {b determinism}: the same seed produces a byte-identical
      transcript (each scenario is run twice and compared). *)

type config = {
  seed_start : int;
  seeds : int;
  workers : int;  (** pool worker slots (>= 1) *)
  log : string -> unit;
}

val default : config

type violation = { v_seed : int; v_what : string }

type summary = {
  cases : int;  (** scenarios run *)
  jobs : int;  (** total submissions across all scenarios *)
  violations : violation list;
  metrics : Obs.Metrics.t;  (** merged [serve.*] + [servefuzz.*] instruments *)
}

val run : config -> summary

(** The response transcript of one seed's scenario (one timestamped
    line per response, ["\n"]-terminated; [workers] defaults to 1) —
    exposed so tests can assert same-seed byte-equality directly. *)
val transcript : ?workers:int -> seed:int -> unit -> string
