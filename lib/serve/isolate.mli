(** One serve-mode attempt: the pipeline run a {!Worker} performs for
    each job the {!Pool} dispatches to it.

    Process isolation is the worker's job, not this module's: a pool
    worker runs {!attempt} in its own forked process, so a poisoned
    job — one that raises, corrupts its heap, calls [exit], segfaults,
    or never returns — can only take down that worker, which the pool
    observes and restarts. *)

(** Result shape marshaled back from a worker: everything the response
    needs, nothing pipeline-internal. *)
type worker_result =
  | R_ok of Protocol.ok_info
  | R_error of Protocol.error_info

(** [attempt sub ~recovery] — one pipeline attempt, run {e in the
    calling process}: build the {!Benchgen.Pipeline.config} from the
    job, run [Pipeline.run] at [recovery], write [sub_out] if
    requested.  Pipeline errors come back as [R_error] with the stable
    tag and the trace path. *)
val attempt :
  Protocol.submit -> recovery:Benchgen.Pipeline.recovery -> worker_result
