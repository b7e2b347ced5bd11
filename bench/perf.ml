(* Perf-regression harness for the engine hot paths.

   Wall-clock timed sections:

   - a matching-queue microbenchmark: the same flood of unexpected
     messages (drained newest-senders-first) and deep pre-posted receive
     queue, driven through the production {!Mpisim.Matchq} and through the
     list-scan oracle {!Reference.Matchq} — the speedup column is the
     point of the exercise;
   - the inter-rank merge of a high-RSD trace, production
     {!Scalatrace.Merge} against the linear-scan {!Reference.Merge};
   - collective-algorithm and neighborhood-schedule microbenchmarks;
   - trace I/O: save and load of the merged trace, with repeats,
     allocation, file bytes, and a bytes-vs-ranks exponent;
   - trace capture: the engine alone against the same run under
     {!Scalatrace.Tracer.hook}, plus [Tracer.finish], each in a fresh
     process so that its top heap is its own;
   - the product itself, [Pipeline.run] on a [From_app] source, over the
     NPB suite at several rank counts, with a traced-events-per-second
     figure.

   Results go to BENCH_engine.json in the working directory.  [--quick]
   shrinks every dimension and then re-parses the emitted JSON — that mode
   runs under [dune runtest] as a bitrot smoke test, so it must stay fast
   and must not assert anything about timings. *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Matching-queue microbenchmark                                        *)

module type QUEUES = sig
  module Unexpected : sig
    type t

    val create : unit -> t
    val add : t -> Mpisim.Matchq.msg -> unit
    val take : t -> Mpisim.Matchq.posted -> Mpisim.Matchq.msg option
  end

  module Posted : sig
    type t

    val create : unit -> t
    val add : t -> Mpisim.Matchq.posted -> unit

    val take :
      t -> src:int -> tag:int -> comm:int -> Mpisim.Matchq.posted option
  end
end

(* Phase 1: every sender's messages arrive (round-robin over senders)
   before any receive is posted, and the receiver drains them
   newest-senders-first — the worst case for a list scan.  Phase 2: every
   receive is pre-posted, then messages arrive latest-sender-first, so
   each arrival searches a deep posted queue.  Returns the number of
   queue operations and a checksum of the matched request ids. *)
let matching_stress (module Q : QUEUES) ~nranks ~msgs_per_rank:k =
  let open Mpisim.Matchq in
  let sum = ref 0 in
  let matched = function
    | Some id -> sum := !sum + id
    | None -> failwith "matching stress: an operation found no match"
  in
  let uq = Q.Unexpected.create () in
  for i = 0 to k - 1 do
    for r = 1 to nranks - 1 do
      Q.Unexpected.add uq
        {
          m_src = r; m_dst = 0; m_tag = 1000 + i; m_bytes = 32; m_comm = 0;
          m_protocol = Eager; m_arrival = 0.; m_send_req = (r * k) + i;
          m_reserved = false;
        }
    done
  done;
  for r = nranks - 1 downto 1 do
    for i = k - 1 downto 0 do
      let p = { p_req = 0; p_src = Some r; p_tag = Some (1000 + i); p_comm = 0; p_time = 0. } in
      matched (Option.map (fun m -> m.m_send_req) (Q.Unexpected.take uq p))
    done
  done;
  let pq = Q.Posted.create () in
  for r = 1 to nranks - 1 do
    for i = 0 to k - 1 do
      Q.Posted.add pq
        { p_req = (r * k) + i; p_src = Some r; p_tag = Some (2000 + i); p_comm = 0; p_time = 0. }
    done
  done;
  for r = nranks - 1 downto 1 do
    for i = 0 to k - 1 do
      matched (Option.map (fun p -> p.p_req) (Q.Posted.take pq ~src:r ~tag:(2000 + i) ~comm:0))
    done
  done;
  (4 * (nranks - 1) * k, !sum)

type micro_run = { wall_s : float; ops : int; ops_per_s : float; checksum : int }

let run_micro queues ~nranks ~msgs_per_rank =
  let (ops, checksum), dt =
    wall (fun () -> matching_stress queues ~nranks ~msgs_per_rank)
  in
  { wall_s = dt; ops; ops_per_s = float_of_int ops /. Float.max dt 1e-9; checksum }

(* ------------------------------------------------------------------ *)
(* Merge stress: reference vs indexed inter-rank merge                 *)

(* The high-RSD regime that made MG fall off a cliff, distilled: trace
   the [hirsd] stress app once, then merge the same per-rank traces with
   the production {!Scalatrace.Merge} and the linear-scan oracle.  The
   merged traces must be byte-identical — the index is a pure lookup
   structure. *)

type merge_run = {
  g_nranks : int;
  g_rsds : int;
  g_events : int;
  reference_s : float;
  indexed_s : float;
}

let run_merge_stress ~nranks ~cls =
  let app =
    match Apps.Registry.find "hirsd" with
    | Some a -> a
    | None -> failwith "hirsd app missing from registry"
  in
  let t = Scalatrace.Tracer.create ~nranks () in
  ignore
    (Mpisim.Mpi.run ~hooks:[ Scalatrace.Tracer.hook t ] ~nranks
       (app.program ~cls ()));
  (* The first merge pays for growing the heap, so the order is fixed:
     oracle first.  It gets no communicator table; its nodes are compared
     under the product's. *)
  let reference, reference_s =
    wall (fun () ->
        Reference.Merge.merge ~nranks ~comms:[] (Scalatrace.Tracer.local_traces t))
  in
  let indexed, indexed_s = wall (fun () -> Scalatrace.Tracer.finish t) in
  if
    Scalatrace.Trace.to_text
      (Scalatrace.Trace.with_nodes indexed (Scalatrace.Trace.nodes reference))
    <> Scalatrace.Trace.to_text indexed
  then failwith "merge implementations disagree on the merged trace";
  {
    g_nranks = nranks;
    g_rsds = Scalatrace.Trace.rsd_count indexed;
    g_events = Scalatrace.Trace.event_count indexed;
    reference_s;
    indexed_s;
  }

let merge_json m =
  Obs.Json.Obj
    [
      ("nranks", Obs.Json.Num (float_of_int m.g_nranks));
      ("rsds", Obs.Json.Num (float_of_int m.g_rsds));
      ("events", Obs.Json.Num (float_of_int m.g_events));
      ("reference_s", Obs.Json.Num m.reference_s);
      ("indexed_s", Obs.Json.Num m.indexed_s);
      ("speedup", Obs.Json.Num (m.reference_s /. Float.max m.indexed_s 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Collective-algorithm microbenchmark                                  *)

(* Generous buffers: the point is schedule cost, not flow control. *)
let micro_net =
  { Mpisim.Netmodel.bluegene_l with unexpected_buffer_bytes = max_int / 2 }

(* One allreduce per iteration under each schedule strategy, at the
   suite's rank counts and a latency-bound/bandwidth-bound payload pair.
   The virtual column is the model's verdict (deterministic — the number
   selection tuning cares about); the wall column is the expansion
   overhead of the schedule path itself. *)

type collalg_run = {
  c_alg : string;
  c_nranks : int;
  c_bytes : int;
  c_virtual_s : float;  (** simulated seconds per allreduce *)
  c_wall_s : float;  (** host seconds for the whole run *)
}

let run_collalg ~coll_alg ~nranks ~bytes ~iters =
  let program (ctx : Mpisim.Mpi.ctx) =
    for _ = 1 to iters do
      Mpisim.Mpi.allreduce ctx ~bytes
    done;
    Mpisim.Mpi.finalize ctx
  in
  let outcome, dt =
    wall (fun () -> Mpisim.Mpi.run ~net:micro_net ~coll_alg ~nranks program)
  in
  {
    c_alg = Mpisim.Coll_alg.name coll_alg;
    c_nranks = nranks;
    c_bytes = bytes;
    c_virtual_s = outcome.Mpisim.Engine.elapsed /. float_of_int iters;
    c_wall_s = dt;
  }

let run_collalg_suite ~rank_counts ~iters =
  List.concat_map
    (fun nranks ->
      List.concat_map
        (fun bytes ->
          List.map
            (fun coll_alg ->
              let r = run_collalg ~coll_alg ~nranks ~bytes ~iters in
              Printf.printf
                "  %-19s p=%-5d %7dB  %.2f us/allreduce  (%.3fs wall)\n%!"
                r.c_alg r.c_nranks r.c_bytes (r.c_virtual_s *. 1e6) r.c_wall_s;
              r)
            Mpisim.Coll_alg.all)
        [ 64; 65536 ])
    rank_counts

let collalg_json c =
  Obs.Json.Obj
    [
      ("alg", Obs.Json.Str c.c_alg);
      ("nranks", Obs.Json.Num (float_of_int c.c_nranks));
      ("bytes", Obs.Json.Num (float_of_int c.c_bytes));
      ("virtual_s", Obs.Json.Num c.c_virtual_s);
      ("wall_s", Obs.Json.Num c.c_wall_s);
    ]

(* ------------------------------------------------------------------ *)
(* Neighborhood-collective microbenchmark                               *)

(* A sparse stencil exchange (power-of-two offsets) timed under both
   schedule expansions: the message-combining isomorphic form (one round
   per offset) and the naive single-round per-link expansion.  The two
   move identical bytes — checked here — so the virtual columns isolate
   what the round structure costs, and the wall columns what the
   expansion itself costs at scale. *)

type neighbor_run = {
  n_nranks : int;
  n_degree : int;
  n_bytes : int;
  n_combined_virtual_s : float;
  n_naive_virtual_s : float;
  n_combined_wall_s : float;
  n_naive_wall_s : float;
}

let run_neighbor ~nranks ~degree ~bytes =
  let offsets = List.init degree (fun i -> 1 lsl i) in
  let per_rank = Array.make nranks (Array.of_list offsets, bytes) in
  let net = Mpisim.Netmodel.bluegene_l in
  let start () = Array.make nranks 0. in
  let combined, combined_wall_s =
    wall (fun () ->
        Mpisim.Coll_alg.timings net
          (Mpisim.Coll_alg.neighbor_combined ~p:nranks ~offsets ~bytes)
          ~start:(start ()))
  in
  let naive, naive_wall_s =
    wall (fun () ->
        Mpisim.Coll_alg.timings net
          (Mpisim.Coll_alg.neighbor_naive ~per_rank)
          ~start:(start ()))
  in
  let sent sched = Mpisim.Coll_alg.bytes_sent_per_rank ~p:nranks sched in
  let total a = Array.fold_left ( + ) 0 a in
  let cb = total (sent (Mpisim.Coll_alg.neighbor_combined ~p:nranks ~offsets ~bytes)) in
  let nb = total (sent (Mpisim.Coll_alg.neighbor_naive ~per_rank)) in
  if cb <> nb then
    failwith
      (Printf.sprintf
         "neighbor schedules disagree on bytes moved: combined=%d naive=%d" cb
         nb);
  let vmax a = Array.fold_left Float.max 0. a in
  {
    n_nranks = nranks;
    n_degree = degree;
    n_bytes = bytes;
    n_combined_virtual_s = vmax combined;
    n_naive_virtual_s = vmax naive;
    n_combined_wall_s = combined_wall_s;
    n_naive_wall_s = naive_wall_s;
  }

let run_neighbor_suite ~rank_counts =
  List.concat_map
    (fun nranks ->
      List.map
        (fun (degree, bytes) ->
          let r = run_neighbor ~nranks ~degree ~bytes in
          Printf.printf
            "  p=%-5d deg=%d %7dB  combined %.2f us  naive %.2f us  (wall \
             %.4fs / %.4fs)\n%!"
            r.n_nranks r.n_degree r.n_bytes
            (r.n_combined_virtual_s *. 1e6)
            (r.n_naive_virtual_s *. 1e6)
            r.n_combined_wall_s r.n_naive_wall_s;
          r)
        [ (2, 512); (4, 65536) ])
    rank_counts

let neighbor_json r =
  Obs.Json.Obj
    [
      ("nranks", Obs.Json.Num (float_of_int r.n_nranks));
      ("degree", Obs.Json.Num (float_of_int r.n_degree));
      ("bytes", Obs.Json.Num (float_of_int r.n_bytes));
      ("combined_virtual_s", Obs.Json.Num r.n_combined_virtual_s);
      ("naive_virtual_s", Obs.Json.Num r.n_naive_virtual_s);
      ("combined_wall_s", Obs.Json.Num r.n_combined_wall_s);
      ("naive_wall_s", Obs.Json.Num r.n_naive_wall_s);
    ]

(* ------------------------------------------------------------------ *)
(* Trace I/O: save and load of the merged trace                         *)

(* [Trace_io.save] and [Trace_io.load] (read + strict parse) of one
   traced app, [repeats] times each, with the words one save and one
   load allocate and the file's size.  The file holds the merged trace,
   so for SPMD codes its size should stay nearly flat in the rank count:
   [bytes_exp] is the exponent of bytes vs ranks fitted over an app's
   rank counts. *)

type spread = { median : float; lo : float; hi : float }

let spread xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  { median = a.(Array.length a / 2); lo = a.(0); hi = a.(Array.length a - 1) }

let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.major_words -. s.promoted_words

type trace_io_run = {
  io_app : string;
  io_cls : Apps.Params.cls;
  io_nranks : int;
  save_s : spread;
  load_s : spread;
  save_mwords : float;
  load_mwords : float;
  io_bytes : int;
}

let run_trace_io ~repeats (name, cls, wanted) =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  let trace, _ = Scalatrace.Tracer.trace_run ~nranks (app.program ~cls ()) in
  let path = Filename.temp_file "bench" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let measured f =
        let w0 = allocated_words () in
        let r, dt = wall f in
        (r, dt, (allocated_words () -. w0) /. 1e6)
      in
      let saves =
        List.init repeats (fun _ -> measured (fun () -> Scalatrace.Trace_io.save trace ~path))
      in
      let loads =
        List.init repeats (fun _ -> measured (fun () -> Scalatrace.Trace_io.load ~path))
      in
      let loaded, _, _ = List.hd loads in
      if Scalatrace.Trace_io.to_framed loaded <> Scalatrace.Trace_io.to_framed trace then
        failwith (name ^ ": the loaded trace does not re-save to the same bytes");
      let secs l = spread (List.map (fun (_, dt, _) -> dt) l)
      and mwords l = (fun (_, _, w) -> w) (List.hd l) in
      {
        io_app = name;
        io_cls = cls;
        io_nranks = nranks;
        save_s = secs saves;
        load_s = secs loads;
        save_mwords = mwords saves;
        load_mwords = mwords loads;
        io_bytes = (Unix.stat path).Unix.st_size;
      })

(* Least-squares slope of log bytes on log ranks, per app with more than
   one rank count. *)
let bytes_exponents runs =
  List.filter_map
    (fun app ->
      let pts =
        List.filter_map
          (fun r ->
            if r.io_app = app then
              Some (log (float_of_int r.io_nranks), log (float_of_int r.io_bytes))
            else None)
          runs
      in
      if List.length pts < 2 then None
      else
        let n = float_of_int (List.length pts) in
        let mean f = List.fold_left (fun a p -> a +. f p) 0. pts /. n in
        let mx = mean fst and my = mean snd in
        let sxy = mean (fun (x, y) -> (x -. mx) *. (y -. my))
        and sxx = mean (fun (x, _) -> (x -. mx) *. (x -. mx)) in
        Some (app, sxy /. sxx))
    (List.sort_uniq compare (List.map (fun r -> r.io_app) runs))

let spread_json s =
  Obs.Json.Obj
    [
      ("median", Obs.Json.Num s.median);
      ("min", Obs.Json.Num s.lo);
      ("max", Obs.Json.Num s.hi);
    ]

let trace_io_json ~repeats runs =
  Obs.Json.Obj
    [
      ("repeats", Obs.Json.Num (float_of_int repeats));
      ( "runs",
        Obs.Json.Arr
          (List.map
             (fun r ->
               Obs.Json.Obj
                 [
                   ("app", Obs.Json.Str r.io_app);
                   ("cls", Obs.Json.Str (Apps.Params.cls_to_string r.io_cls));
                   ("nranks", Obs.Json.Num (float_of_int r.io_nranks));
                   ("save_s", spread_json r.save_s);
                   ("load_s", spread_json r.load_s);
                   ("save_mwords", Obs.Json.Num r.save_mwords);
                   ("load_mwords", Obs.Json.Num r.load_mwords);
                   ("bytes", Obs.Json.Num (float_of_int r.io_bytes));
                 ])
             runs) );
      ( "bytes_exp",
        Obs.Json.Obj
          (List.map (fun (app, e) -> (app, Obs.Json.Num e)) (bytes_exponents runs)) );
    ]

(* ------------------------------------------------------------------ *)
(* Trace capture: engine alone vs under the tracer                      *)

(* One measurement runs in a fresh process ([capture_probe], reached as
   [main.exe capture-probe MODE APP CLS N]) so that the top heap it
   reports is that run's alone: [Gc.top_heap_words] never falls, and a
   forked child would inherit the parent's.  [engine] runs [Mpi.run]
   with no hooks; [traced] runs it under [Tracer.hook], then
   [Tracer.finish].  The probe prints one line:

     events run_s finish_s top_heap_mb run_mwords finish_mwords local_words *)

let word_mb words = words *. float_of_int (Sys.word_size / 8) /. 1e6

let capture_probe ~mode ~app ~cls ~nranks =
  let app = Option.get (Apps.Registry.find app) in
  let cls = Option.get (Apps.Params.cls_of_string cls) in
  let program = app.program ~cls () in
  let measured f =
    let w0 = allocated_words () in
    let r, dt = wall f in
    (r, dt, (allocated_words () -. w0) /. 1e6)
  in
  let events, run_s, run_mw, finish_s, finish_mw, local_words =
    match mode with
    | "engine" ->
        let o, dt, mw = measured (fun () -> Mpisim.Mpi.run ~nranks program) in
        (o.Mpisim.Engine.events, dt, mw, 0., 0., 0)
    | "traced" ->
        let tr = Scalatrace.Tracer.create ~nranks () in
        let o, dt, mw =
          measured (fun () ->
              Mpisim.Mpi.run ~hooks:[ Scalatrace.Tracer.hook tr ] ~nranks program)
        in
        let _, fdt, fmw = measured (fun () -> Scalatrace.Tracer.finish tr) in
        ( o.Mpisim.Engine.events, dt, mw, fdt, fmw,
          Obj.reachable_words (Obj.repr (Scalatrace.Tracer.local_traces tr)) )
    | m -> failwith ("capture-probe: unknown mode " ^ m)
  in
  let top_mb = word_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words) in
  Printf.printf "%d %.6f %.6f %.3f %.4f %.4f %d\n" events run_s finish_s top_mb
    run_mw finish_mw local_words

type probe = {
  p_events : int;
  p_run_s : float;
  p_finish_s : float;
  p_top_mb : float;
  p_run_mwords : float;
  p_finish_mwords : float;
  p_local_words : int;
}

let run_probe ~mode (app, cls, nranks) =
  let args =
    [| Sys.executable_name; "capture-probe"; mode; app;
       Apps.Params.cls_to_string cls; string_of_int nranks |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let line = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith ("capture probe failed: " ^ String.concat " " (Array.to_list args)));
  Scanf.sscanf line "%d %f %f %f %f %f %d" (fun e r f h rw fw lw ->
      { p_events = e; p_run_s = r; p_finish_s = f; p_top_mb = h;
        p_run_mwords = rw; p_finish_mwords = fw; p_local_words = lw })

type capture_run = {
  cp_app : string;
  cp_cls : Apps.Params.cls;
  cp_nranks : int;
  cp_events : int;
  engine : probe list;
  traced : probe list;
}

let run_capture ~repeats (name, cls, wanted) =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  let case = (name, cls, nranks) in
  (* interleave the two modes so machine drift hits both alike *)
  let pairs =
    List.init repeats (fun _ ->
        let e = run_probe ~mode:"engine" case in
        (e, run_probe ~mode:"traced" case))
  in
  let engine = List.map fst pairs and traced = List.map snd pairs in
  let events = (List.hd engine).p_events in
  if List.exists (fun p -> p.p_events <> events) (engine @ traced) then
    failwith (name ^ ": the tracer changed the engine's event count");
  { cp_app = name; cp_cls = cls; cp_nranks = nranks; cp_events = events; engine; traced }

let capture_json ~repeats runs =
  let sp f l = spread_json (spread (List.map f l)) in
  Obs.Json.Obj
    [
      ("repeats", Obs.Json.Num (float_of_int repeats));
      ( "runs",
        Obs.Json.Arr
          (List.map
             (fun c ->
               let ev = float_of_int c.cp_events in
               let median f l = (spread (List.map f l)).median in
               let engine_s = median (fun p -> p.p_run_s) c.engine
               and traced_s = median (fun p -> p.p_run_s) c.traced
               and finish_s = median (fun p -> p.p_finish_s) c.traced in
               Obs.Json.Obj
                 [
                   ("app", Obs.Json.Str c.cp_app);
                   ("cls", Obs.Json.Str (Apps.Params.cls_to_string c.cp_cls));
                   ("nranks", Obs.Json.Num (float_of_int c.cp_nranks));
                   ("events", Obs.Json.Num ev);
                   ("engine_s", sp (fun p -> p.p_run_s) c.engine);
                   ("traced_s", sp (fun p -> p.p_run_s) c.traced);
                   ("finish_s", sp (fun p -> p.p_finish_s) c.traced);
                   ( "capture_over_engine",
                     Obs.Json.Num
                       ((traced_s +. finish_s -. engine_s) /. Float.max engine_s 1e-9) );
                   ("engine_top_heap_mb", sp (fun p -> p.p_top_mb) c.engine);
                   ("traced_top_heap_mb", sp (fun p -> p.p_top_mb) c.traced);
                   ( "engine_words_per_event",
                     Obs.Json.Num (median (fun p -> p.p_run_mwords) c.engine *. 1e6 /. ev) );
                   ( "traced_words_per_event",
                     Obs.Json.Num (median (fun p -> p.p_run_mwords) c.traced *. 1e6 /. ev) );
                   ("finish_mwords", Obs.Json.Num (median (fun p -> p.p_finish_mwords) c.traced));
                   ( "local_words_per_event",
                     Obs.Json.Num (float_of_int (List.hd c.traced).p_local_words /. ev) );
                 ])
             runs) );
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end pipeline over the application suite                      *)

(* One [Pipeline.run] per row, exactly what [benchgen generate] runs:
   the traced simulation and merge, then align and wildcard resolution
   only when their pre-checks find work, then codegen. *)

type app_run = {
  a_name : string;
  a_nranks : int;
  pipeline_s : float;
  a_events : int;
  a_events_per_s : float;
  aligned : bool;
  resolved : bool;
  input_rsds : int;
  final_rsds : int;
}

let run_app (app : Apps.Registry.app) ~wanted =
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  let artifact, pipeline_s =
    wall (fun () ->
        match
          Benchgen.Pipeline.run
            { Benchgen.Pipeline.default with name = Some app.name }
            (Benchgen.Pipeline.From_app { nranks; app = app.program () })
        with
        | Ok (a, _) -> a
        | Error e -> failwith (Benchgen.Pipeline.error_to_string e))
  in
  let report = artifact.Benchgen.Pipeline.report in
  let events =
    match artifact.Benchgen.Pipeline.trace_outcome with
    | Some o -> o.Mpisim.Engine.events
    | None -> 0
  in
  {
    a_name = app.name;
    a_nranks = nranks;
    pipeline_s;
    a_events = events;
    a_events_per_s = float_of_int events /. Float.max pipeline_s 1e-9;
    aligned = report.Benchgen.Pipeline.aligned;
    resolved = report.Benchgen.Pipeline.resolved;
    input_rsds = report.Benchgen.Pipeline.input_rsds;
    final_rsds = report.Benchgen.Pipeline.final_rsds;
  }

(* ------------------------------------------------------------------ *)
(* JSON out, via the observability layer's shared value type            *)

let jint i = Obs.Json.Num (float_of_int i)

let micro_json m =
  Obs.Json.Obj
    [
      ("wall_s", Obs.Json.Num m.wall_s);
      ("ops", jint m.ops);
      ("ops_per_s", Obs.Json.Num m.ops_per_s);
    ]

let app_json a =
  Obs.Json.Obj
    [
      ("app", Obs.Json.Str a.a_name);
      ("nranks", jint a.a_nranks);
      ("pipeline_s", Obs.Json.Num a.pipeline_s);
      ("events", jint a.a_events);
      ("events_per_s", Obs.Json.Num a.a_events_per_s);
      ("aligned", Obs.Json.Bool a.aligned);
      ("resolved", Obs.Json.Bool a.resolved);
      ("input_rsds", jint a.input_rsds);
      ("final_rsds", jint a.final_rsds);
    ]

let emit ~path ~mode ~micro_nranks ~msgs_per_rank ~reference ~indexed ~merge
    ~collalg ~neighbor ~trace_io ~capture ~apps =
  let doc =
    Obs.Json.Obj
      [
        ("schema", Obs.Json.Str "bench-engine/4");
        ("mode", Obs.Json.Str mode);
        ( "micro",
          Obs.Json.Obj
            [
              ("nranks", jint micro_nranks);
              ("msgs_per_rank", jint msgs_per_rank);
              ("reference", micro_json reference);
              ("indexed", micro_json indexed);
              ( "speedup",
                Obs.Json.Num
                  (indexed.ops_per_s /. Float.max reference.ops_per_s 1e-9) );
            ] );
        ("merge", merge_json merge);
        ("collalg", Obs.Json.Arr (List.map collalg_json collalg));
        ("neighbor", Obs.Json.Arr (List.map neighbor_json neighbor));
        ("trace_io", trace_io);
        ("capture", capture);
        ("apps", Obs.Json.Arr (List.map app_json apps));
      ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* JSON self-check: re-parse our own output                             *)

exception Bad_json of string

let validate_json path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  match Obs.Json.parse (String.trim s) with
  | exception Obs.Json.Parse_error msg -> raise (Bad_json msg)
  | Obs.Json.Obj _ as j ->
      List.iter
        (fun k ->
          if Obs.Json.member k j = None then
            raise (Bad_json ("missing top-level key: " ^ k)))
        [ "schema"; "micro"; "merge"; "collalg"; "neighbor"; "trace_io"; "capture"; "apps" ]
  | _ -> raise (Bad_json "top level is not an object")

(* ------------------------------------------------------------------ *)

let run ~quick () =
  let micro_nranks = if quick then 64 else 256 in
  let msgs_per_rank = if quick then 4 else 32 in
  Printf.printf
    "matching queues: %d ranks x %d msgs/rank, list-scan reference vs \
     indexed\n%!"
    micro_nranks msgs_per_rank;
  let reference =
    run_micro (module Reference.Matchq) ~nranks:micro_nranks ~msgs_per_rank
  in
  let indexed =
    run_micro (module Mpisim.Matchq) ~nranks:micro_nranks ~msgs_per_rank
  in
  if reference.checksum <> indexed.checksum then
    failwith "matching queue implementations disagree on the matches";
  let speedup = indexed.ops_per_s /. Float.max reference.ops_per_s 1e-9 in
  Printf.printf
    "  reference: %8.0f ops/s (%.3fs)\n  indexed:   %8.0f ops/s \
     (%.3fs)\n  speedup:   %.1fx\n%!"
    reference.ops_per_s reference.wall_s indexed.ops_per_s indexed.wall_s
    speedup;
  let merge_nranks = if quick then 8 else 64 in
  let merge_cls = if quick then Apps.Params.S else Apps.Params.C in
  Printf.printf
    "merge stress: hirsd at %d ranks, reference vs indexed inter-rank merge\n%!"
    merge_nranks;
  let merge = run_merge_stress ~nranks:merge_nranks ~cls:merge_cls in
  Printf.printf
    "  %d rsds / %d events; reference %.3fs, indexed %.3fs (%.1fx)\n%!"
    merge.g_rsds merge.g_events merge.reference_s merge.indexed_s
    (merge.reference_s /. Float.max merge.indexed_s 1e-9);
  let collalg_counts = if quick then [ 64 ] else [ 64; 256; 1024 ] in
  let collalg_iters = if quick then 1 else 4 in
  Printf.printf
    "collective algorithms: allreduce per strategy, p in {%s}\n%!"
    (String.concat ", " (List.map string_of_int collalg_counts));
  let collalg =
    run_collalg_suite ~rank_counts:collalg_counts ~iters:collalg_iters
  in
  let neighbor_counts = if quick then [ 64 ] else [ 64; 256; 1024 ] in
  Printf.printf
    "neighborhood collectives: sparse exchange, combined vs naive schedules, \
     p in {%s}\n%!"
    (String.concat ", " (List.map string_of_int neighbor_counts));
  let neighbor = run_neighbor_suite ~rank_counts:neighbor_counts in
  let io_repeats = if quick then 2 else 5 in
  let io_cases =
    if quick then
      Apps.Params.
        [ ("mg", S, 16); ("lu", S, 16); ("ep", S, 16); ("ep", S, 64);
          ("stencil2d", S, 16); ("stencil2d", S, 64) ]
    else
      Apps.Params.
        [ ("mg", C, 64); ("lu", C, 128); ("ep", W, 64); ("ep", W, 1024);
          ("stencil2d", W, 64); ("stencil2d", W, 256) ]
  in
  Printf.printf "trace I/O: save and load, %d repeats\n%!" io_repeats;
  let io_runs =
    List.map
      (fun case ->
        let r = run_trace_io ~repeats:io_repeats case in
        Printf.printf
          "  %-9s %s p=%-5d %8d bytes  save %.4fs (%.1f Mw)  load %.4fs (%.1f Mw)\n%!"
          r.io_app (Apps.Params.cls_to_string r.io_cls) r.io_nranks r.io_bytes
          r.save_s.median r.save_mwords r.load_s.median r.load_mwords;
        r)
      io_cases
  in
  List.iter
    (fun (app, e) -> Printf.printf "  %-9s bytes ~ ranks^%.3f\n%!" app e)
    (bytes_exponents io_runs);
  let cap_repeats = if quick then 1 else 3 in
  let cap_cases =
    if quick then Apps.Params.[ ("mg", S, 16); ("ep", S, 64) ]
    else
      Apps.Params.
        [ ("mg", C, 64); ("lu", C, 128); ("cg", C, 256); ("cg", C, 512);
          ("ep", C, 4096) ]
  in
  Printf.printf
    "trace capture: engine alone vs traced + finish, one process per run, %d \
     repeats\n%!"
    cap_repeats;
  let cap_runs =
    List.map
      (fun case ->
        let c = run_capture ~repeats:cap_repeats case in
        let med f l = (spread (List.map f l)).median in
        Printf.printf
          "  %-4s %s p=%-5d %8d events  engine %.3fs %5.1f MB  traced %.3fs + \
           finish %.3fs %5.1f MB\n%!"
          c.cp_app (Apps.Params.cls_to_string c.cp_cls) c.cp_nranks c.cp_events
          (med (fun p -> p.p_run_s) c.engine) (med (fun p -> p.p_top_mb) c.engine)
          (med (fun p -> p.p_run_s) c.traced) (med (fun p -> p.p_finish_s) c.traced)
          (med (fun p -> p.p_top_mb) c.traced);
        c)
      cap_cases
  in
  let apps, counts =
    if quick then
      ( List.filter
          (fun (a : Apps.Registry.app) ->
            List.mem a.name [ "cg"; "mg"; "ring" ])
          Apps.Registry.all,
        [ 16 ] )
    else (Apps.Registry.paper_suite, [ 64; 256; 1024 ])
  in
  let app_runs =
    List.concat_map
      (fun wanted ->
        List.map
          (fun app ->
            let r = run_app app ~wanted in
            Printf.printf
              "  %-8s p=%-4d pipeline %.3fs  align %-3s wildcard %-3s  (%.0f \
               events/s)\n%!"
              r.a_name r.a_nranks r.pipeline_s
              (if r.aligned then "yes" else "no")
              (if r.resolved then "yes" else "no")
              r.a_events_per_s;
            r)
          apps)
      counts
  in
  let path = "BENCH_engine.json" in
  emit ~path ~mode:(if quick then "quick" else "full") ~micro_nranks
    ~msgs_per_rank ~reference ~indexed ~merge ~collalg ~neighbor
    ~trace_io:(trace_io_json ~repeats:io_repeats io_runs)
    ~capture:(capture_json ~repeats:cap_repeats cap_runs) ~apps:app_runs;
  Printf.printf "wrote %s\n%!" path;
  if quick then begin
    validate_json path;
    Printf.printf "quick mode: JSON parses and has the expected shape\n%!"
  end

(* ------------------------------------------------------------------ *)
(* Perf smoke: a wall-clock guard on the indexed merge path            *)

(* Allocation gate: retained sizes measured with [Obj.reachable_words],
   which depend only on the traced program, never on the clock — so the
   check cannot flake.  A one-sample compute-time summary (what every
   traced call carries until merging) must stay within 8 words, and the
   MG-16 class W per-rank local traces within 1.5x the 41507 words they
   took when the histograms became range-sized; the dense 128-bucket
   layout took 145 words per summary and 179321 words for those traces,
   the range-sized one 13 words per summary. *)
let mg16w_local_words = 41507

let allocation_gate () =
  let tr = Scalatrace.Tracer.create ~nranks:1 () in
  ignore
    (Mpisim.Mpi.run ~hooks:[ Scalatrace.Tracer.hook tr ] ~nranks:1 (fun ctx ->
         Mpisim.Mpi.finalize ctx));
  let dtime_words =
    match (Scalatrace.Tracer.local_traces tr).(0) with
    | [ Scalatrace.Tnode.Leaf e ] when Util.Histogram.count e.dtime = 1 ->
        Obj.reachable_words (Obj.repr e.dtime)
    | _ -> failwith "allocation gate: expected one single-sample RSD"
  in
  let app = Option.get (Apps.Registry.find "mg") in
  let tr = Scalatrace.Tracer.create ~nranks:16 () in
  ignore
    (Mpisim.Mpi.run ~hooks:[ Scalatrace.Tracer.hook tr ] ~nranks:16
       (app.program ~cls:Apps.Params.W ()));
  let local_words = Obj.reachable_words (Obj.repr (Scalatrace.Tracer.local_traces tr)) in
  let local_limit = mg16w_local_words * 3 / 2 in
  Printf.printf
    "allocation gate: one-sample dtime %d words (limit 8); mg-16 W local \
     traces %d words (limit %d)\n%!"
    dtime_words local_words local_limit;
  if dtime_words > 8 then
    failwith
      (Printf.sprintf "allocation gate: a one-sample dtime takes %d words, over 8"
         dtime_words);
  if local_words > local_limit then
    failwith
      (Printf.sprintf
         "allocation gate: mg-16 W local traces take %d words, over %d" local_words
         local_limit)

(* Runs under [dune runtest].  The budget is deliberately generous —
   ~100x the expected time on an unloaded machine — so it never flakes
   on a busy box, yet still catches the complexity class regressing:
   before the indexed merge, this workload took minutes, not seconds. *)
let smoke () =
  allocation_gate ();
  let budget_s = 60. in
  let m, total_s =
    wall (fun () -> run_merge_stress ~nranks:32 ~cls:Apps.Params.A)
  in
  Printf.printf
    "perf smoke: hirsd 32 ranks, %d rsds; reference merge %.3fs, indexed \
     %.3fs, total %.3fs (budget %.0fs)\n%!"
    m.g_rsds m.reference_s m.indexed_s total_s budget_s;
  if m.indexed_s > budget_s then
    failwith
      (Printf.sprintf
         "perf smoke: indexed merge took %.1fs, over the %.0fs budget — the \
          merge complexity class has regressed"
         m.indexed_s budget_s)
