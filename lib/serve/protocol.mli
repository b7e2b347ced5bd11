(** The serve-mode wire protocol: line-delimited JSON.

    One request per line in, one response per line out, over stdin /
    stdout or a Unix-domain socket.  Every line the server emits is one
    of the typed {!response}s below — a client never sees prose-only
    failures, and every error carries a stable machine-readable [tag]
    (and the input file [path] when there is one), so clients can
    triage without parsing messages.

    Requests:
    {v
    {"op":"submit","id":"j1","trace":"/path/to/file.trace"}
    {"op":"submit","id":"j2","app":"lu","nranks":8,"cls":"W"}
    {"op":"health"}   {"op":"drain"}   {"op":"shutdown"}
    v}
    A submit may carry per-job policy overrides ([deadline_s],
    [max_retries], [backoff_base_s], [backoff_factor], [backoff_max_s],
    [jitter], [escalate], [recovery]) plus [out] (write the generated
    benchmark to this path) and [emit_text] (inline the .ncptl text in
    the response).

    Responses (all carry ["type"]):
    {v
    {"type":"accepted","id":"j1","queue_depth":2}
    {"type":"rejected","id":"j9","reason":"queue_full"}
    {"type":"result","id":"j1","ok":true,"attempts":1,"recovery":"strict",
     "statements":12,"final_rsds":3,"warnings":[{"tag":"salvaged","detail":"..."}]}
    {"type":"result","id":"j2","ok":false,"attempts":3,
     "error":{"tag":"unrecoverable_trace","path":"/bad.trace","retryable":true,"detail":"..."}}
    {"type":"cancelled","id":"j3"}
    {"type":"health","queue_depth":1,"queue_limit":8,"draining":false,
     "submitted":5,"completed":3,"failed":0,"rejected":1,"cancelled":0}
    {"type":"drained","jobs_run":7,"cancelled":0}
    v}

    Rendering uses {!Obs.Json}, which is deterministic, so equal
    responses serialize byte-identically — the fuzzer's same-seed
    transcript check depends on this. *)

type job_source =
  | J_file of string  (** path to a serialized trace *)
  | J_app of { app : string; nranks : int; cls : string }
      (** registry application to trace first *)

type submit = {
  sub_id : string;
  sub_source : job_source;
  sub_policy : Policy.t;  (** server default + request overrides *)
  sub_out : string option;  (** write the generated .ncptl here *)
  sub_emit_text : bool;  (** inline the .ncptl text in the response *)
}

type request = Submit of submit | Health | Drain | Shutdown

type reject_reason =
  | Queue_full  (** admission control shed the job *)
  | Draining  (** server is draining; no new work *)
  | Oversized of { bytes : int; limit : int }
      (** request line exceeds the configured maximum *)
  | Bad_request of string  (** unparseable or ill-typed request *)
  | Conn_limit of { limit : int }
      (** server is at its connection cap; this connection is closed
          after the rejection is written *)
  | Inflight_limit of { limit : int }
      (** this connection already has [limit] unresolved jobs
          (backpressure; resubmit after a result arrives) *)

(** ["queue_full"] | ["draining"] | ["oversized"] | ["bad_request"] |
    ["conn_limit"] | ["inflight_limit"]. *)
val reject_tag : reject_reason -> string

type error_info = {
  e_tag : string;
      (** stable machine tag: a {!Benchgen.Pipeline.error_tag}, or one
          of the serve-level tags ["deadline_exceeded"], ["crashed"],
          ["poisoned"] (the job's attempts killed two distinct pool
          workers and it was quarantined), ["unknown_app"],
          ["bad_class"] *)
  e_path : string option;  (** input trace file, when the job had one *)
  e_retryable : bool;
      (** whether the pool considers this failure worth retrying
          (with escalated recovery) *)
  e_detail : string;  (** human-readable diagnostic *)
}

type ok_info = {
  ok_statements : int;
  ok_final_rsds : int;
  ok_recovery : string;  (** recovery level of the successful attempt *)
  ok_warnings : (string * string) list;  (** (stable tag, detail) *)
  ok_text : string option;  (** .ncptl text when [sub_emit_text] *)
  ok_out : string option;  (** path written when [sub_out] *)
}

type response =
  | Accepted of { id : string; queue_depth : int }
  | Rejected of { id : string option; reason : reject_reason }
  | Result_ok of { id : string; attempts : int; info : ok_info }
  | Result_error of { id : string; attempts : int; error : error_info }
  | Cancelled of { id : string }  (** job was queued when the server shut down *)
  | Health_report of {
      queue_depth : int;
      queue_limit : int;
      draining : bool;
      submitted : int;
      completed : int;
      failed : int;
      rejected : int;
      cancelled : int;
    }
  | Drained of { jobs_run : int; cancelled : int }

(** The input trace path of a submit, when its source is a file. *)
val submit_path : submit -> string option

(** [error_of_gen_error ?path e] maps a typed pipeline error to the
    wire shape: tag from {!Benchgen.Pipeline.error_tag}, [path]
    attached structurally, retryability classified (everything except
    [E_io] can improve under an escalated recovery level). *)
val error_of_gen_error :
  ?path:string -> Benchgen.Pipeline.gen_error -> error_info

(** [parse_request ~default_policy ~max_bytes line] — parse one request
    line.  Lines longer than [max_bytes] are rejected as [Oversized]
    without being parsed; malformed JSON, unknown ops, and ill-typed
    fields as [Bad_request] (with the request's [id] echoed when it
    could still be extracted). *)
val parse_request :
  default_policy:Policy.t ->
  max_bytes:int ->
  string ->
  (request, string option * reject_reason) result

(** Deterministic one-line rendering (no trailing newline). *)
val response_to_line : response -> string

(** Parse a response line back (used by tests, the fuzzer, and smoke
    clients).  @raise Obs.Json.Parse_error on non-protocol lines. *)
val response_of_line : string -> response
