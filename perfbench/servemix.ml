(* The serve-mix workload: a real [benchgen serve --socket PATH
   --workers 2] driven by this single process over 2 connections in a
   closed loop (a connection submits its next job only once the previous
   one has resolved), multiplexed with [select].

   Jobs are small 16-rank runs: EP, CG, FT and IS as app jobs, and LU, MG
   and Sweep3D traces, made at set-up, as file jobs.  A pass is a batch
   holding every kind [per_kind] times, in an order drawn from the seed;
   the same kinds repeat across batches.  Every result is checked against
   an in-process [Pipeline.run] of the same job, and those reference runs
   repeat between batches, so their figures span the run like the
   serving figures do.

   A run is [segments] servers in turn, each set up (fixtures written,
   server started, both connections answered), served for its share of
   the run, and stopped with a [{"op":"drain"}] request (end of stdin
   does not drain a server that has a socket).  Each server's
   [--metrics-out] file is then read and must show no worker restarts,
   deaths or quarantines. *)

module M = Measure
module Pipeline = Benchgen.Pipeline
module P = Serve.Protocol

type kind = App of string | File of string

let kinds = [ App "ep"; App "cg"; App "ft"; App "is"; File "lu"; File "mg"; File "sweep3d" ]
let kind_name = function App n -> n | File n -> n ^ "-trace"

type size = {
  nranks : int;
  cls : string;
  per_kind : int;  (** jobs of each kind in a batch *)
  segments : int;  (** servers started, one after another, per run *)
  every : int;  (** batches between in-process reference passes *)
}

let full = { nranks = 16; cls = "W"; per_kind = 4; segments = 5; every = 10 }
let tiny = { full with per_kind = 1; segments = 1; every = 1 }

let app name =
  match Apps.Registry.find name with
  | Some a -> a
  | None -> invalid_arg ("unknown app " ^ name)

let fixture ~dir name = Filename.concat dir (name ^ ".trace")

(* The submit [Serve.Isolate.attempt] would receive for a job. *)
let submit sz ~dir ~id kind =
  {
    P.sub_id = id;
    sub_source =
      (match kind with
      | App a -> P.J_app { app = a; nranks = sz.nranks; cls = sz.cls }
      | File a -> P.J_file (fixture ~dir a));
    sub_policy = Serve.Policy.default;
    sub_out = None;
    sub_emit_text = false;
  }

let request_line sz ~dir ~id kind =
  let open Obs.Json in
  let src =
    match kind with
    | App a -> [ ("app", Str a); ("nranks", Num (float_of_int sz.nranks)); ("cls", Str sz.cls) ]
    | File a -> [ ("trace", Str (fixture ~dir a)) ]
  in
  to_string (Obj ([ ("op", Str "submit"); ("id", Str id) ] @ src))

(* ------------------------------------------------------------------ *)
(* In-process reference                                                *)

(* What a result must show: the fields a client triages on. *)
type expect = {
  ok : bool;
  statements : int;
  final_rsds : int;
  tags : string list;
  events : float;  (** simulated events of the job's tracing run *)
  digest : string;  (** of the generated text *)
}

(* The [Pipeline.run] a worker performs for [kind], as [Serve.Isolate]
   configures it. *)
let source sz ~dir kind =
  match kind with
  | File a -> Pipeline.From_file (fixture ~dir a)
  | App a ->
      let a = app a in
      let cls = Option.get (Apps.Params.cls_of_string sz.cls) in
      let nranks = Apps.Registry.fit_nranks a ~wanted:sz.nranks in
      Pipeline.From_app { nranks; app = a.program ~cls () }

let reference_job a sz ~dir kind =
  let cfg = { Pipeline.default with name = Some (kind_name kind) } in
  match M.timed a "generate_s" (fun () -> Pipeline.run cfg (source sz ~dir kind)) with
  | Error _ -> { ok = false; statements = 0; final_rsds = 0; tags = []; events = 0.; digest = "" }
  | Ok (art, warnings) ->
      {
        ok = true;
        statements = art.report.statements;
        final_rsds = art.report.final_rsds;
        tags = List.map Pipeline.warning_tag warnings;
        events =
          float_of_int
            (Option.fold ~none:0 ~some:(fun o -> o.Mpisim.Engine.events) art.trace_outcome);
        digest = Digest.string art.report.text;
      }

(* One reference pass: every kind once, in a fresh process. *)
let reference_pass sz ~dir () =
  let a = M.acc () in
  let w0 = M.allocated_words () in
  let expects = List.map (reference_job a sz ~dir) kinds in
  M.add a "alloc_mwords" ((M.allocated_words () -. w0) /. 1e6);
  List.iter2
    (fun k e -> M.check a e.ok (kind_name k ^ ": in-process Pipeline.run failed"))
    kinds expects;
  (M.sample_of a, expects)

(* The traced counterpart: per kind, the layer sequence (its text must
   be the reference's) and [Serve.Isolate.attempt] in-process. *)
let traced_pass sz ~dir ~expected () =
  let a = M.acc () in
  List.iter
    (fun kind ->
      let what = kind_name kind in
      let text =
        Layers.stages a (fun () ->
            let trace =
              match source sz ~dir kind with
              | Pipeline.From_app { nranks; app } -> fst (Layers.trace_app a ~nranks app)
              | Pipeline.From_file path -> Layers.load a path
              | Pipeline.From_trace t -> t
            in
            snd (Layers.generate a ~name:what trace))
      in
      M.check a
        (Digest.string text = (expected kind).digest)
        (what ^ ": traced layer sequence and Pipeline.run generated different text");
      let sub = submit sz ~dir ~id:what kind in
      match M.timed a "serve.exec_s" (fun () -> Serve.Isolate.attempt sub ~recovery:`Strict) with
      | Serve.Isolate.R_ok _ -> ()
      | Serve.Isolate.R_error e -> M.check a false (what ^ ": attempt failed: " ^ e.P.e_detail))
    kinds;
  M.sample_of a

(* Fixture traces for the file jobs: [benchgen trace -o] of the app the
   job is named after, at the jobs' size. *)
let make_fixtures sz ~dir () =
  List.iter
    (function
      | App _ -> ()
      | File name -> (
          match source sz ~dir (App name) with
          | Pipeline.From_app { nranks; app } ->
              let trace, _ = Scalatrace.Tracer.trace_run ~nranks app in
              Scalatrace.Trace_io.save trace ~path:(fixture ~dir name)
          | _ -> assert false))
    kinds

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)

type job = { id : string; kind : kind; t_submit : float; mutable t_accept : float }

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;
  mutable lines : string list;  (** complete lines not yet handled *)
  mutable job : job option;  (** the unresolved job, if any *)
}

exception Serve_failure of string

let send conn line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write conn.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available on [conn], splitting complete lines off. *)
let fill conn =
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise (Serve_failure "server closed a connection")
  | n ->
      Buffer.add_subbytes conn.rbuf chunk 0 n;
      let parts = List.rev (String.split_on_char '\n' (Buffer.contents conn.rbuf)) in
      Buffer.clear conn.rbuf;
      Buffer.add_string conn.rbuf (List.hd parts);
      conn.lines <- conn.lines @ List.rev (List.tl parts)

(* Wait until some connection has a complete response line; return
   [(conn, response)] pairs, in arrival order per connection. *)
let rec next_responses ~deadline conns =
  let ready = List.filter (fun c -> c.lines <> []) conns in
  if ready <> [] then
    List.concat_map
      (fun c ->
        let ls = c.lines in
        c.lines <- [];
        List.map (fun l -> (c, P.response_of_line l)) ls)
      ready
  else begin
    let timeout = deadline -. M.now () in
    if timeout <= 0. then raise (Serve_failure "timed out waiting for the server");
    (match Unix.select (List.map (fun c -> c.fd) conns) [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rd, _, _ -> List.iter (fun c -> if List.memq c.fd rd then fill c) conns);
    next_responses ~deadline conns
  end

let rec await ~deadline conn pred =
  match List.find_opt (fun (_, r) -> pred r) (next_responses ~deadline [ conn ]) with
  | Some (_, r) -> r
  | None -> await ~deadline conn pred

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)

type server = { pid : int; metrics_out : string; conns : conn list }

let live = ref []

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (M.waitpid_retry pid)

let () = at_exit (fun () -> List.iter kill_server !live)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let connect ~pid sock =
  let deadline = M.now () +. 30. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; rbuf = Buffer.create 4096; lines = []; job = None }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if exited pid then raise (Serve_failure "server exited during start-up");
        if M.now () > deadline then raise (Serve_failure "server socket never came up");
        Util.Clock.sleep_s 0.002;
        go ()
  in
  go ()

(* Start [benchgen serve], connect 2 clients and see each answered. *)
let start ~cli ~dir ~idx ~seed =
  let file ext = Filename.concat dir (Printf.sprintf "serve%d.%s" idx ext) in
  let sock = file "sock" and metrics_out = file "metrics.jsonl" and log = file "log" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let args =
    [| cli; "serve"; "--socket"; sock; "--workers"; "2"; "--metrics-out"; metrics_out;
       "--seed"; string_of_int seed |]
  in
  let pid = Unix.create_process cli args devnull logfd logfd in
  Unix.close devnull;
  Unix.close logfd;
  live := pid :: !live;
  let conns = List.init 2 (fun _ -> connect ~pid sock) in
  let deadline = M.now () +. 30. in
  List.iter
    (fun c ->
      send c {|{"op":"health"}|};
      ignore (await ~deadline c (function P.Health_report _ -> true | _ -> false)))
    conns;
  { pid; metrics_out; conns }

let vm_hwm_mb pid =
  let status = In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all in
  List.find_map
    (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
    (String.split_on_char '\n' status)
  |> Option.value ~default:0.

(* Drain, wait for the server to exit, and return its metrics lines. *)
let stop srv =
  let deadline = M.now () +. 60. in
  let c = List.hd srv.conns in
  send c {|{"op":"drain"}|};
  ignore (await ~deadline c (function P.Drained _ -> true | _ -> false));
  List.iter (fun c -> Unix.close c.fd) srv.conns;
  let rec wait () =
    if exited srv.pid then ()
    else if M.now () > deadline then begin
      kill_server srv.pid;
      raise (Serve_failure "server did not exit after drain")
    end
    else (Util.Clock.sleep_s 0.005; wait ())
  in
  wait ();
  live := List.filter (( <> ) srv.pid) !live;
  In_channel.with_open_text srv.metrics_out In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map Obs.Metrics.line_of_string

let metric_values lines name =
  List.filter_map
    (fun (n, _, j) ->
      if n <> name then None
      else match Obs.Json.member "value" j with Some (Obs.Json.Num v) -> Some v | _ -> None)
    lines

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)

(* What the closed loop accumulates over every segment of a run. *)
type loop = {
  rng : Random.State.t;  (** draws each batch's job order *)
  mutable jobs : int;
  mutable latencies : float list;  (** submit to terminal response, seconds *)
  mutable admits : float list;  (** submit to [accepted], seconds *)
  mutable makespans : float list;  (** one per batch, seconds *)
  mutable events : float;  (** simulated events of the jobs that passed *)
  mutable failed : int;
  mutable problems : string list;
}

let new_loop ~seed =
  {
    rng = Random.State.make [| seed |];
    jobs = 0;
    latencies = [];
    admits = [];
    makespans = [];
    events = 0.;
    failed = 0;
    problems = [];
  }

(* Serving time: the batches' wall time, without what runs between them. *)
let serving_s lp = List.fold_left ( +. ) 0. lp.makespans

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let matches (e : expect) = function
  | P.Result_ok { info; _ } ->
      e.ok && info.ok_statements = e.statements && info.ok_final_rsds = e.final_rsds
      && List.map fst info.ok_warnings = e.tags
  | _ -> false

(* Run batches on [srv] until [seconds] have passed; after every
   [every]-th batch, with both connections idle, call [between ()]. *)
let closed_loop lp sz ~dir ~seconds ~expected ~every ~between srv =
  let t0 = M.now () in
  let run_batch () =
    let queue =
      ref (shuffle lp.rng (List.concat_map (fun k -> List.init sz.per_kind (fun _ -> k)) kinds))
    in
    let tb = M.now () in
    let submit_next c =
      match !queue with
      | [] -> ()
      | kind :: rest ->
          queue := rest;
          lp.jobs <- lp.jobs + 1;
          let id = Printf.sprintf "j%d" lp.jobs in
          c.job <- Some { id; kind; t_submit = M.now (); t_accept = nan };
          send c (request_line sz ~dir ~id kind)
    in
    List.iter submit_next srv.conns;
    while List.exists (fun c -> c.job <> None) srv.conns do
      let deadline = M.now () +. 60. in
      List.iter
        (fun (c, resp) ->
          match (c.job, resp) with
          | Some j, P.Accepted _ -> j.t_accept <- M.now ()
          | Some j, (P.Result_ok _ | P.Result_error _ | P.Rejected _ | P.Cancelled _) ->
              let t = M.now () in
              lp.latencies <- (t -. j.t_submit) :: lp.latencies;
              if not (Float.is_nan j.t_accept) then
                lp.admits <- (j.t_accept -. j.t_submit) :: lp.admits;
              let e = expected j.kind in
              if matches e resp then lp.events <- lp.events +. e.events
              else begin
                lp.failed <- lp.failed + 1;
                lp.problems <-
                  (kind_name j.kind ^ " " ^ j.id ^ ": " ^ P.response_to_line resp) :: lp.problems
              end;
              c.job <- None;
              submit_next c
          | _, r -> raise (Serve_failure ("unexpected response " ^ P.response_to_line r)))
        (next_responses ~deadline srv.conns)
    done;
    lp.makespans <- (M.now () -. tb) :: lp.makespans
  in
  let rec go i =
    run_batch ();
    if i mod every = 0 then between ();
    if M.now () -. t0 < seconds then go (i + 1)
  in
  go 1
