(** A persistent forked pool worker.

    A pool worker is forked once per {!Pool.Spawn} and then loops: read
    one marshaled request from its request pipe, run {!Isolate.attempt}
    in its own process, marshal the reply back, repeat.  The fork cost
    is paid per worker lifetime, not per attempt; a segfaulting or
    [exit]ing job kills only the worker, which the pool observes as EOF
    on the reply pipe and restarts.

    In-process exceptions raised by an attempt are caught inside the
    worker and reported as {!R_raised} — the worker {e survives} them;
    only hard process deaths surface as {!read_step} [`Eof]. *)

type reply =
  | R_result of Isolate.worker_result
  | R_raised of string  (** the attempt raised; the worker is still up *)

type t

(** [spawn ~wid ~close_fds ()] forks a worker for slot [wid].  The
    child closes every descriptor in [close_fds ()] (client
    connections, listeners, the other workers' pipes) and redirects
    its stdin/stdout to [/dev/null] — fd 1 may be a protocol stream in
    the parent and must never receive stray bytes — then enters the
    request loop.  Never returns in the child. *)
val spawn : wid:int -> close_fds:(unit -> Unix.file_descr list) -> unit -> t

val pid : t -> int
val wid : t -> int

(** The reply pipe's read end, for the server's [select] set. *)
val fd : t -> Unix.file_descr

(** Both pipe ends, for sibling workers' [close_fds] lists. *)
val pipe_fds : t -> Unix.file_descr list

(** Write one attempt request to the worker.  @raise Unix.Unix_error
    (e.g. [EPIPE]) if the worker is dead — the caller should treat
    that as the worker's death. *)
val send :
  t -> Protocol.submit -> recovery:Benchgen.Pipeline.recovery -> unit

(** Non-blocking-style incremental read, to be called when {!fd} is
    readable: consume available bytes and return a complete reply once
    one has accumulated.  [`Eof] means the worker died (or exited).
    @raise Failure on an undecodable reply stream. *)
val read_step : t -> [ `Reply of reply | `Eof | `Again ]

(** [SIGKILL] the worker, reap it, close its pipes.  Idempotent. *)
val kill : t -> unit
