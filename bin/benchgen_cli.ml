(* Command-line front end for the benchmark generator.

     benchgen list
     benchgen trace    lu  -n 16 -c W          # show the compressed trace
     benchgen generate lu  -n 16 -c W -o lu.ncptl
     benchgen run      lu.ncptl -n 16 --net ethernet --compute-scale 0.5
     benchgen compare  lu  -n 16 -c W          # original vs generated timing *)

open Cmdliner
module Pipeline = Benchgen.Pipeline

(* ------------------------------------------------------------------ *)
(* Failure classes -> exit codes.  Every expected failure prints a
   diagnostic on stderr and exits with a distinct non-zero code instead
   of an uncaught-exception backtrace. *)

let exit_invalid = 2 (* out-of-range option values *)
let exit_potential_deadlock = 3 (* input application can hang (Fig. 5) *)
let exit_align = 4 (* collective misuse in the trace *)
let exit_trace_format = 5 (* unparseable trace file *)
let exit_deadlock = 6 (* simulated run deadlocked *)
let exit_stalled = 7 (* watchdog budget / retransmission budget hit *)
let exit_mpi = 8 (* MPI semantic error during simulation *)
let exit_io = 9 (* file-system failure *)
let exit_codegen = 10 (* generated/benchmark code failed to parse or lower *)
let exit_fuzz_violation = 11 (* fuzz campaign found a fidelity violation *)
let exit_unrecoverable = 12 (* damaged trace kept nothing usable *)
let exit_serve = 13 (* serve mode could not start (socket bind/setup) *)

let fail code msg =
  Printf.eprintf "benchgen: %s\n%!" msg;
  exit code

let code_of_gen_error = function
  | Pipeline.E_potential_deadlock _ -> exit_potential_deadlock
  | Pipeline.E_align _ -> exit_align
  | Pipeline.E_wildcard _ -> exit_mpi
  | Pipeline.E_trace_format _ -> exit_trace_format
  | Pipeline.E_io _ -> exit_io
  | Pipeline.E_codegen _ -> exit_codegen
  | Pipeline.E_unrecoverable_trace _ -> exit_unrecoverable

let guarded f =
  try f () with
  | Invalid_argument msg -> fail exit_invalid msg
  | Benchgen.Wildcard.Potential_deadlock msg ->
      fail exit_potential_deadlock ("potential deadlock: " ^ msg)
  | Benchgen.Align.Align_error msg ->
      fail exit_align ("collective alignment failed: " ^ msg)
  | Benchgen.Wildcard.Wildcard_error msg ->
      fail exit_mpi ("wildcard resolution failed: " ^ msg)
  | Scalatrace.Trace_io.Format_error msg ->
      fail exit_trace_format ("malformed trace: " ^ msg)
  | Mpisim.Engine.Deadlock msg -> fail exit_deadlock msg
  | Mpisim.Engine.Stalled msg -> fail exit_stalled msg
  | Mpisim.Engine.Mpi_error msg -> fail exit_mpi ("MPI error: " ^ msg)
  | Replay.Replay_error msg -> fail exit_mpi ("replay error: " ^ msg)
  (* Benchmark-code failures (unparseable or unlowerable .ncptl) are a
     distinct failure class from MPI semantic errors in a simulated run. *)
  | Conceptual.Parse.Parse_error msg -> fail exit_codegen ("parse error: " ^ msg)
  | Conceptual.Lower.Lower_error msg ->
      fail exit_codegen ("lowering error: " ^ msg)
  | Sys_error msg -> fail exit_io msg

let warn_all warnings =
  List.iter
    (fun w -> Printf.eprintf "benchgen: warning: %s\n%!" (Pipeline.warning_to_string w))
    warnings

(* ------------------------------------------------------------------ *)
(* Fault-injection and watchdog options, shared by the simulating
   subcommands. *)

type sim_opts = {
  fault : Mpisim.Fault.t option;
  max_events : int option;
  max_virtual_time : float option;
}

let sim_term =
  let fault_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Enable deterministic fault injection seeded with $(docv); all \
             perturbations are reproducible functions of the seed.")
  in
  let drop_prob =
    Arg.(
      value
      & opt float 0.
      & info [ "drop-prob" ] ~docv:"P"
          ~doc:
            "Drop each transmission attempt with probability $(docv) (in \
             [0,1)); the engine retransmits with exponential backoff.")
  in
  let jitter =
    Arg.(
      value
      & opt float 0.
      & info [ "jitter" ] ~docv:"USEC"
          ~doc:"Mean extra wire latency per transfer, microseconds (exponential).")
  in
  let os_noise =
    Arg.(
      value
      & opt float 0.
      & info [ "os-noise" ] ~docv:"FRAC"
          ~doc:"Relative stddev of multiplicative compute jitter (OS noise).")
  in
  let max_retries =
    Arg.(
      value
      & opt int 8
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Retransmissions per message before declaring the run stalled.")
  in
  let max_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-events" ] ~docv:"N"
          ~doc:"Watchdog: abort with a stall diagnostic after $(docv) events.")
  in
  let max_time =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-time" ] ~docv:"SECONDS"
          ~doc:"Watchdog: abort once virtual time exceeds $(docv) seconds.")
  in
  let make seed drop jitter noise retries max_events max_virtual_time =
    (match max_events with
    | Some m when m <= 0 -> fail exit_invalid "--max-events must be positive"
    | _ -> ());
    (match max_virtual_time with
    | Some t when not (Float.is_finite t) || t <= 0. ->
        fail exit_invalid "--max-time must be positive and finite"
    | _ -> ());
    let fault =
      if seed = None && drop = 0. && jitter = 0. && noise = 0. then None
      else
        Some
          (guarded (fun () ->
               Mpisim.Fault.make
                 ~seed:(Option.value ~default:1 seed)
                 ~drop_prob:drop ~jitter_mean:(jitter *. 1e-6) ~os_noise:noise
                 ~max_retries:retries ()))
    in
    { fault; max_events; max_virtual_time }
  in
  Term.(
    const make $ fault_seed $ drop_prob $ jitter $ os_noise $ max_retries
    $ max_events $ max_time)

(* ------------------------------------------------------------------ *)
(* Observability options: record pipeline/engine activity to a Chrome
   trace-event file (Perfetto-loadable) and/or dump the run's metrics
   registry as JSONL. *)

type obs_opts = { trace_out : string option; metrics_out : string option }

let obs_term =
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record pipeline-stage spans and engine samples to $(docv) as \
             Chrome trace-event JSON (load in Perfetto or chrome://tracing). \
             Timestamps are deterministic; same-seed runs produce identical \
             files.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Dump the run's metrics registry (counters, gauges, histograms) \
             to $(docv) as JSONL, one instrument per line.")
  in
  Term.(
    const (fun trace_out metrics_out -> { trace_out; metrics_out })
    $ trace_out $ metrics_out)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* The sink to run the pipeline with, plus a finisher that writes the
   requested artifacts once the run's metrics are known. *)
let obs_setup (o : obs_opts) =
  let recorder =
    match o.trace_out with
    | None -> None
    | Some _ -> Some (Obs.Exporter.recorder ())
  in
  let sink =
    match recorder with None -> Obs.Sink.nil | Some r -> Obs.Exporter.sink r
  in
  let finish (metrics : Obs.Metrics.t option) =
    (match (recorder, o.trace_out) with
    | Some r, Some path ->
        write_file path (Obs.Exporter.to_chrome_string r);
        Printf.printf "wrote %s (%d trace events)\n" path
          (Obs.Exporter.event_count r)
    | _ -> ());
    match (o.metrics_out, metrics) with
    | Some path, Some m ->
        write_file path (Obs.Metrics.to_jsonl m);
        Printf.printf "wrote %s\n" path
    | Some path, None ->
        write_file path "";
        Printf.printf "wrote %s (no metrics collected)\n" path
    | None, _ -> ()
  in
  (sink, finish)

let fault_counters (o : Mpisim.Engine.outcome) = function
  | None -> ()
  | Some _ ->
      Printf.printf "faults: dropped=%d retries=%d timeouts=%d\n" o.dropped
        o.retries o.timeouts

let net_conv =
  let parse = function
    | "bgl" | "bluegene" | "bluegene_l" -> Ok Mpisim.Netmodel.bluegene_l
    | "eth" | "ethernet" | "ethernet_cluster" -> Ok Mpisim.Netmodel.ethernet_cluster
    | s -> Error (`Msg (Printf.sprintf "unknown network model %S (bgl|ethernet)" s))
  in
  let print ppf n = Format.fprintf ppf "%a" Mpisim.Netmodel.pp n in
  Arg.conv (parse, print)

let cls_conv =
  let parse s =
    match Apps.Params.cls_of_string s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown class %S (S|W|A|B|C)" s))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Apps.Params.cls_to_string c))

let nranks_arg =
  Arg.(value & opt int 16 & info [ "n"; "nranks" ] ~docv:"N" ~doc:"Number of MPI ranks.")

let cls_arg =
  Arg.(
    value
    & opt cls_conv Apps.Params.W
    & info [ "c"; "class" ] ~docv:"CLS" ~doc:"Problem class (S, W, A, B, C).")

let net_arg =
  Arg.(
    value
    & opt net_conv Mpisim.Netmodel.bluegene_l
    & info [ "net" ] ~docv:"MODEL" ~doc:"Network model: bgl or ethernet.")

(* --coll-alg is parsed in the run function (not an Arg.conv) so an
   unknown name exits with the documented invalid-option code 2, like
   --defect and the other typed-value options. *)
let coll_alg_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "coll-alg" ] ~docv:"ALG"
        ~doc:
          "Collective algorithm for simulator runs: $(b,monolithic) (the \
           analytic reference model, the default), $(b,ring), \
           $(b,recursive-doubling), $(b,binomial), $(b,rabenseifner), or \
           $(b,auto) (pick per operation, payload, and communicator size). \
           See `benchgen coll-algs`.")

let parse_coll_alg : string option -> Mpisim.Coll_alg.t = function
  | None -> `Monolithic
  | Some s -> (
      match Mpisim.Coll_alg.of_string s with
      | Ok a -> a
      | Error m -> fail exit_invalid m)

let app_arg =
  let apps = List.map (fun (a : Apps.Registry.app) -> a.name) Apps.Registry.all in
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) apps))) None
    & info [] ~docv:"APP" ~doc:"Application name (see `benchgen list`).")

let resolve_app name wanted =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted in
  if nranks <> wanted then
    Printf.eprintf "note: %s does not support %d ranks; using %d\n%!" name wanted nranks;
  (app, nranks)

let list_cmd =
  let doc = "List the traceable applications." in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter
            (fun (a : Apps.Registry.app) -> Printf.printf "%-8s %s\n" a.name a.description)
            Apps.Registry.all)
      $ const ())

let coll_algs_cmd =
  let doc = "List the available collective algorithm strategies." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Every strategy accepted by $(b,--coll-alg).  A strategy that does \
         not apply to an operation or communicator size (e.g. \
         recursive-doubling on a non-power-of-two communicator) falls back \
         to $(b,monolithic) for that collective; strategy choice affects \
         timing only, never semantics.";
    ]
  in
  Cmd.v (Cmd.info "coll-algs" ~doc ~man)
    Term.(
      const (fun () ->
          List.iter
            (fun a ->
              Printf.printf "%-19s %s\n" (Mpisim.Coll_alg.name a)
                (Mpisim.Coll_alg.describe a))
            Mpisim.Coll_alg.all)
      $ const ())

let trace_cmd =
  let doc = "Trace an application; print the trace or save it to a file." in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Save the trace to $(docv).")
  in
  let run name wanted cls net out sim =
    guarded @@ fun () ->
    let app, nranks = resolve_app name wanted in
    let trace, outcome =
      Scalatrace.Tracer.trace_run ~net ?fault:sim.fault
        ?max_events:sim.max_events ?max_virtual_time:sim.max_virtual_time
        ~nranks (app.program ~cls ())
    in
    (match out with
    | Some path ->
        Scalatrace.Trace_io.save trace ~path;
        Printf.printf "wrote %s\n" path
    | None -> Format.printf "%a@." Scalatrace.Trace.pp trace);
    Printf.printf
      "run: %.3f virtual seconds; trace: %d RSDs for %d MPI events (%s serialized)\n"
      outcome.elapsed (Scalatrace.Trace.rsd_count trace)
      (Scalatrace.Trace.event_count trace)
      (Util.Table.fbytes (Scalatrace.Trace.text_size trace));
    fault_counters outcome sim.fault
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ app_arg $ nranks_arg $ cls_arg $ net_arg $ out_arg $ sim_term)

(* Shared --recovery flag: how much trace damage the pipeline tolerates.
   [generate-from-trace] defaults to strict; [salvage] is tolerant by
   definition, so there strict is the opt-in. *)
let recovery_arg default =
  let recovery_conv =
    Arg.conv
      ( (fun s ->
          Result.map_error (fun m -> `Msg m) (Pipeline.recovery_of_string s)),
        fun ppf r -> Format.pp_print_string ppf (Pipeline.recovery_to_string r)
      )
  in
  Arg.(
    value
    & opt recovery_conv default
    & info [ "recovery" ] ~docv:"MODE"
        ~doc:
          "Damage tolerance for the input trace: $(b,strict) (any corruption \
           is an error), $(b,salvage) (load what survives, refuse if it \
           cannot be aligned), or $(b,best-effort) (additionally truncate to \
           the last consistent collective frontier).")

let generate_from_trace_cmd =
  let doc = "Generate a coNCePTuaL benchmark from a saved trace file." in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the benchmark to $(docv).")
  in
  let run file out recovery =
    guarded @@ fun () ->
    match
      Pipeline.run { Pipeline.default with recovery } (Pipeline.From_file file)
    with
    | Error e -> fail (code_of_gen_error e) (Pipeline.error_to_string e)
    | Ok (artifact, warnings) -> (
        warn_all warnings;
        let report = artifact.Pipeline.report in
        match out with
        | Some path ->
            write_file path report.text;
            Printf.printf "wrote %s (%d statements)\n" path report.statements
        | None -> print_string report.text)
  in
  Cmd.v
    (Cmd.info "generate-from-trace" ~doc)
    Term.(const run $ file_arg $ out_arg $ recovery_arg `Strict)

let salvage_cmd =
  let doc = "Inspect and recover a damaged trace file." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Loads $(i,TRACE) with the tolerant trace reader: damaged frames \
         are skipped, the merged trace is cut at the first chunk lost or \
         malformed (every rank keeps a prefix of its events), and a \
         recovery report (frames dropped, ranks missing, events recovered \
         and lost per group of ranks) is printed.  With $(b,-o) the \
         recovered trace is re-saved as a clean framed file.  Exit status \
         is 12 when nothing usable survived, or when \
         $(b,--recovery=strict) and the file shows any damage.";
    ]
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Re-save the recovered trace to $(docv).")
  in
  let run file out recovery =
    guarded @@ fun () ->
    let text =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error msg ->
        fail exit_unrecoverable (file ^ ": unrecoverable: io error: " ^ msg)
    in
    match Scalatrace.Trace_io.read text with
    | Error { reason; _ } ->
        fail exit_unrecoverable (file ^ ": unrecoverable: " ^ reason)
    | Ok (trace, report) ->
        print_string (Scalatrace.Trace_io.report_to_string report);
        if recovery = `Strict && Scalatrace.Trace_io.is_degraded report then
          fail exit_unrecoverable
            (file ^ ": trace is damaged and --recovery=strict was requested");
        (match out with
        | Some path ->
            Scalatrace.Trace_io.save ~path trace;
            Printf.printf "wrote %s (%d events, %d ranks)\n" path
              (Scalatrace.Trace.event_count trace)
              (Scalatrace.Trace.nranks trace)
        | None -> ())
  in
  Cmd.v (Cmd.info "salvage" ~doc ~man)
    Term.(const run $ file_arg $ out_arg $ recovery_arg `Salvage)

let replay_cmd =
  let doc = "Replay a saved trace on the simulator (ScalaReplay)." in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let run file net sim =
    guarded @@ fun () ->
    let trace = Scalatrace.Trace_io.load ~path:file in
    let r =
      Replay.run ~net ?fault:sim.fault ?max_events:sim.max_events
        ?max_virtual_time:sim.max_virtual_time trace
    in
    Printf.printf "replayed %d MPI events in %.6f virtual seconds\n"
      (Scalatrace.Trace.event_count trace) r.outcome.elapsed;
    fault_counters r.outcome sim.fault
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg $ net_arg $ sim_term)

let generate_cmd =
  let doc = "Generate a benchmark (coNCePTuaL or C+MPI) from a trace." in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the benchmark to $(docv).")
  in
  let lang_arg =
    Arg.(
      value
      & opt (enum [ ("conceptual", `Conceptual); ("c", `C) ]) `Conceptual
      & info [ "lang" ] ~docv:"LANG" ~doc:"Target language: conceptual or c.")
  in
  let run name wanted cls net out lang coll sim obs =
    guarded @@ fun () ->
    let app, nranks = resolve_app name wanted in
    let sink, finish = obs_setup obs in
    let cfg =
      {
        Pipeline.default with
        name = Some name;
        net = Some net;
        fault = sim.fault;
        max_events = sim.max_events;
        max_virtual_time = sim.max_virtual_time;
        obs = sink;
        coll_alg = parse_coll_alg coll;
      }
    in
    match
      Pipeline.run cfg (Pipeline.From_app { nranks; app = app.program ~cls () })
    with
    | Error e -> fail (code_of_gen_error e) (Pipeline.error_to_string e)
    | Ok (artifact, warnings) ->
        warn_all warnings;
        let report = artifact.Pipeline.report in
        let text =
          match lang with
          | `Conceptual -> report.text
          | `C ->
              (* the C backend consumes the already-rewritten trace *)
              Benchgen.Cgen.program ~name artifact.Pipeline.resolved_trace
        in
        (match out with
        | Some path ->
            write_file path text;
            Printf.printf "wrote %s (%d statements%s%s)\n" path report.statements
              (if report.aligned then "; collectives aligned" else "")
              (if report.resolved then "; wildcards resolved" else "")
        | None -> print_string text);
        finish (Some artifact.Pipeline.metrics)
  in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const run $ app_arg $ nranks_arg $ cls_arg $ net_arg $ out_arg $ lang_arg
      $ coll_alg_arg $ sim_term $ obs_term)

let run_cmd =
  let doc = "Execute a .ncptl benchmark on the simulator." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Benchmark source.")
  in
  let scale_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "compute-scale" ] ~docv:"F"
          ~doc:"Multiply all COMPUTE durations by $(docv) (what-if studies).")
  in
  let run file wanted net scale sim =
    guarded @@ fun () ->
    let text = In_channel.with_open_text file In_channel.input_all in
    let program = Conceptual.Parse.program text in
    let program =
      if scale = 1.0 then program else Conceptual.Edit.scale_compute scale program
    in
    let res =
      Conceptual.Lower.run ~net ?fault:sim.fault ?max_events:sim.max_events
        ?max_virtual_time:sim.max_virtual_time ~nranks:wanted program
    in
    Printf.printf "total time: %.6f s  (%d messages, %s)\n" res.outcome.elapsed
      res.outcome.messages
      (Util.Table.fbytes res.outcome.p2p_bytes);
    fault_counters res.outcome sim.fault;
    List.iter
      (fun (label, vals) ->
        Printf.printf "log %S:" label;
        List.iter (fun (r, v) -> Printf.printf " [%d]=%.1fus" r v) vals;
        print_newline ())
      res.logs
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ file_arg $ nranks_arg $ net_arg $ scale_arg $ sim_term)

let stats_cmd =
  let doc = "Communication statistics of an application (or trace file)." in
  let file_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~docv:"FILE" ~doc:"Analyze a saved trace instead of tracing APP.")
  in
  let app_opt =
    let apps = List.map (fun (a : Apps.Registry.app) -> a.name) Apps.Registry.all in
    Arg.(
      value
      & pos 0 (some (enum (List.map (fun n -> (n, n)) apps))) None
      & info [] ~docv:"APP" ~doc:"Application name (omit when using --trace).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Additionally dump the statistics as a JSONL metrics file \
             (per-operation call/byte counters plus trace-shape gauges).")
  in
  let run app_name wanted cls net file metrics_out =
    guarded @@ fun () ->
    let trace =
      match (file, app_name) with
      | Some path, _ -> Scalatrace.Trace_io.load ~path
      | None, Some name ->
          let app, nranks = resolve_app name wanted in
          fst (Scalatrace.Tracer.trace_run ~net ~nranks (app.program ~cls ()))
      | None, None ->
          prerr_endline "either APP or --trace FILE is required";
          exit 1
    in
    let op_totals = Scalatrace.Analysis.op_totals trace in
    Printf.printf "ranks: %d; RSDs: %d; MPI events: %d; total compute: %s\n\n"
      (Scalatrace.Trace.nranks trace)
      (Scalatrace.Trace.rsd_count trace)
      (Scalatrace.Trace.event_count trace)
      (Util.Table.fsec (Scalatrace.Analysis.total_compute trace));
    List.iter
      (fun (name, calls, bytes) ->
        Printf.printf "%-20s %10d calls %14s\n" name calls (Util.Table.fbytes bytes))
      op_totals;
    print_newline ();
    if Scalatrace.Trace.nranks trace <= 32 then
      print_string
        (Scalatrace.Analysis.matrix_to_string (Scalatrace.Analysis.comm_matrix trace))
    else print_endline "(communication matrix omitted for > 32 ranks)";
    match metrics_out with
    | None -> ()
    | Some path ->
        let m = Obs.Metrics.create () in
        Obs.Metrics.set m "trace.nranks"
          (float_of_int (Scalatrace.Trace.nranks trace));
        Obs.Metrics.set m "trace.rsds"
          (float_of_int (Scalatrace.Trace.rsd_count trace));
        Obs.Metrics.set m "trace.events"
          (float_of_int (Scalatrace.Trace.event_count trace));
        Obs.Metrics.set m "trace.total_compute_s"
          (Scalatrace.Analysis.total_compute trace);
        List.iter
          (fun (name, calls, bytes) ->
            let labels = [ ("op", name) ] in
            Obs.Metrics.inc m ~labels ~by:calls "trace.calls";
            Obs.Metrics.inc m ~labels ~by:bytes "trace.bytes")
          op_totals;
        write_file path (Obs.Metrics.to_jsonl m);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const run $ app_opt $ nranks_arg $ cls_arg $ net_arg $ file_arg
      $ metrics_arg)

let compare_cmd =
  let doc = "Trace, generate, and compare original vs generated benchmark." in
  let noise_arg =
    Arg.(
      value
      & opt int 0
      & info [ "validate-under-noise" ] ~docv:"TRIALS"
          ~doc:
            "Additionally re-run both programs under $(docv) perturbed \
             network/fault scenarios and report the timing-error \
             distribution (0 = off).")
  in
  let run name wanted cls net trials coll sim obs =
    guarded @@ fun () ->
    let app, nranks = resolve_app name wanted in
    let sink, finish = obs_setup obs in
    let cfg =
      {
        Pipeline.default with
        name = Some name;
        net = Some net;
        fault = sim.fault;
        max_events = sim.max_events;
        max_virtual_time = sim.max_virtual_time;
        obs = sink;
        coll_alg = parse_coll_alg coll;
      }
    in
    let artifact, warnings =
      match
        Pipeline.run cfg
          (Pipeline.From_app { nranks; app = app.program ~cls () })
      with
      | Error e -> fail (code_of_gen_error e) (Pipeline.error_to_string e)
      | Ok v -> v
    in
    warn_all warnings;
    let report = artifact.Pipeline.report in
    let fid = Pipeline.validate cfg ~nranks (app.program ~cls ()) artifact in
    Printf.printf "original:  %.6f s\ngenerated: %.6f s\nerror:     %+.2f%%\n"
      fid.Pipeline.f_original.elapsed fid.Pipeline.f_generated.elapsed
      fid.Pipeline.f_error_pct;
    Printf.printf "passes:    align=%b wildcard=%b; %d statements from %d RSDs\n"
      report.aligned report.resolved report.statements report.final_rsds;
    fault_counters fid.Pipeline.f_generated sim.fault;
    (match fid.Pipeline.f_mpip_diff with
    | [] -> print_endline "mpiP:      identical per-operation statistics"
    | diffs ->
        print_endline
          "mpiP differences (Table 1 substitutions and AWAIT rewrites):";
        List.iter (fun d -> print_endline ("  " ^ d)) diffs);
    finish (Some artifact.Pipeline.metrics);
    if trials > 0 then begin
      let nr =
        Benchgen.validate_under_noise ~net ~trials ?fault:sim.fault ~nranks
          (app.program ~cls ()) report
      in
      Printf.printf "\nfidelity under noise (%d perturbed trials):\n" trials;
      Printf.printf "  clean baseline error: %+.2f%%\n" nr.nr_baseline_error_pct;
      List.iter
        (fun (s : Benchgen.noise_sample) ->
          Printf.printf
            "  seed=%-4d latency x%.2f bandwidth x%.2f  original %.6fs  \
             generated %.6fs  error %+.2f%%\n"
            s.ns_seed s.ns_latency_factor s.ns_bandwidth_factor s.ns_original
            s.ns_generated s.ns_error_pct)
        nr.nr_samples;
      Printf.printf
        "  mean |error| %.2f%%   max |error| %.2f%%   stddev %.2f%%\n"
        nr.nr_mean_abs_error_pct nr.nr_max_abs_error_pct nr.nr_stddev_error_pct
    end
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(
      const run $ app_arg $ nranks_arg $ cls_arg $ net_arg $ noise_arg
      $ coll_alg_arg $ sim_term $ obs_term)

let extrapolate_cmd =
  let doc =
    "Extrapolate traces from small rank counts and generate a benchmark for \
     a larger machine (paper Sec 6 / ScalaExtrap)."
  in
  let from_arg =
    Arg.(
      value
      & opt (list int) [ 4; 8; 16 ]
      & info [ "from" ] ~docv:"P1,P2,.." ~doc:"Rank counts to trace (>= 2).")
  in
  let target_arg =
    Arg.(
      value & opt int 64 & info [ "target" ] ~docv:"P" ~doc:"Target rank count.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the benchmark to $(docv).")
  in
  let run name cls net froms target out =
    guarded @@ fun () ->
    let app = Option.get (Apps.Registry.find name) in
    let inputs =
      List.map
        (fun p ->
          let p = Apps.Registry.fit_nranks app ~wanted:p in
          fst (Scalatrace.Tracer.trace_run ~net ~nranks:p (app.program ~cls ())))
        froms
    in
    match Benchgen.Extrap.extrapolate inputs ~target with
    | exception Benchgen.Extrap.Extrap_error msg ->
        Printf.eprintf "cannot extrapolate %s: %s\n" name msg;
        exit 1
    | trace -> (
        let cfg =
          {
            Pipeline.default with
            name = Some (Printf.sprintf "%s (extrapolated to %d)" name target);
          }
        in
        let report =
          match Pipeline.run cfg (Pipeline.From_trace trace) with
          | Error e -> fail (code_of_gen_error e) (Pipeline.error_to_string e)
          | Ok (artifact, warnings) ->
              warn_all warnings;
              artifact.Pipeline.report
        in
        match out with
        | Some path ->
            write_file path report.text;
            Printf.printf "wrote %s (%d statements for %d tasks)\n" path
              report.statements target
        | None -> print_string report.text)
  in
  Cmd.v (Cmd.info "extrapolate" ~doc)
    Term.(const run $ app_arg $ cls_arg $ net_arg $ from_arg $ target_arg $ out_arg)

let fuzz_cmd =
  let doc =
    "Differential fuzzing: random SPMD programs through the full pipeline, \
     checked against a semantic oracle."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Draws deadlock-free random programs (collectives from distinct call \
         sites, ANY_SOURCE/any-tag receives with unique matchings, split \
         communicators, every Table 1 collective), runs each through the \
         pipeline, and compares the original run, the resolved trace's \
         replay, and the generated benchmark on per-channel message \
         counts/bytes/order and collective participant sets.  Violations \
         are minimized by a deterministic shrinker and written to --out as \
         replayable .prog files.  Exit status is 11 when any violation was \
         found.";
    ]
  in
  let seeds_arg =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")
  in
  let seed_start_arg =
    Arg.(
      value & opt int 1
      & info [ "seed-start" ] ~docv:"SEED" ~doc:"First seed (inclusive).")
  in
  let defect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "defect" ] ~docv:"DEFECT"
          ~doc:
            "Deliberately break the pipeline under test (self-test of the \
             oracle): skip-wildcard, scale-bytes[:K], or drop-tail.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write minimized counterexamples to $(docv)/cx-<seed>.prog (plus \
             a latest.prog alias).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:
            "Stop starting new cases (and interrupt shrinking) after $(docv) \
             seconds of wall-clock time.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of a campaign, re-check one saved .prog file (a \
             counterexample or corpus entry).  A defect recorded in the file \
             is honored unless --defect overrides it.")
  in
  let mode_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("differential", `Differential);
               ("neighbor", `Neighbor);
               ("corruption", `Corruption);
               ("serve", `Serve);
               ("coll", `Coll);
             ])
          `Differential
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Campaign kind: $(b,differential) (random programs vs a semantic \
             oracle, the default), $(b,neighbor) (the differential campaign \
             with half the phase draws biased to sparse neighborhood \
             collectives — random and stencil topologies over partial \
             participant sets), $(b,corruption) (seeded damage to framed \
             trace files, checking that every outcome is typed and that \
             best-effort recovery still yields replayable benchmarks), \
             $(b,serve) (seeded scenarios of clean/flaky/fatal/hanging/\
             crashing/poison jobs against the serve scheduler, a simulated \
             worker pool on virtual time, checking typed responses only, no \
             lost jobs, bounded queue, clean drain, and same-seed \
             byte-identical transcripts), or $(b,coll) (every \
             collective algorithm schedule vs the monolithic reference: the \
             whole app registry plus seeded random programs, checking \
             identical communication and exactly one completion event per \
             logical collective).")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Serve mode only: scenarios drive a simulated worker pool of \
             $(docv) persistent workers (crashing/hanging jobs across \
             workers, worker-kill injection, restart backoff, breaker trips, \
             poison-job quarantine).  1 (the default) matches \
             $(b,benchgen serve)'s default pool.")
  in
  let parse_defect s =
    match Pipeline.defect_of_string s with
    | Ok d -> d
    | Error m -> fail exit_invalid m
  in
  let run seeds seed_start defect out budget replay mode coll workers obs =
    guarded @@ fun () ->
    if workers < 1 then fail exit_invalid "--workers must be >= 1";
    let defect = Option.map parse_defect defect in
    let coll_alg = parse_coll_alg coll in
    let sink, finish = obs_setup obs in
    match (mode, replay) with
    | `Coll, _ ->
        let cfg =
          {
            Check.Collfuzz.default with
            seed_start;
            seeds;
            log = (fun m -> Printf.eprintf "benchgen: fuzz: %s\n%!" m);
          }
        in
        let s = Check.Collfuzz.run cfg in
        Printf.printf
          "coll fuzz: %d cases (%d apps, %d seeds per algorithm), %d \
           violations\n"
          s.Check.Collfuzz.cases s.Check.Collfuzz.apps_checked
          s.Check.Collfuzz.gen_checked
          (List.length s.Check.Collfuzz.violations);
        List.iter
          (fun (v : Check.Collfuzz.violation) ->
            Printf.printf "  %s under %s: %s\n" v.v_case v.v_alg v.v_what)
          s.Check.Collfuzz.violations;
        finish (Some s.Check.Collfuzz.metrics);
        if s.Check.Collfuzz.violations <> [] then exit exit_fuzz_violation
    | `Serve, _ ->
        let cfg =
          {
            Check.Servefuzz.seed_start;
            seeds;
            workers;
            log = (fun m -> Printf.eprintf "benchgen: fuzz: %s\n%!" m);
          }
        in
        let s = Check.Servefuzz.run cfg in
        Printf.printf
          "serve fuzz: %d scenarios, %d jobs submitted, %d violations\n"
          s.Check.Servefuzz.cases s.Check.Servefuzz.jobs
          (List.length s.Check.Servefuzz.violations);
        List.iter
          (fun (v : Check.Servefuzz.violation) ->
            Printf.printf "  seed %d: %s\n" v.v_seed v.v_what)
          s.Check.Servefuzz.violations;
        finish (Some s.Check.Servefuzz.metrics);
        if s.Check.Servefuzz.violations <> [] then exit exit_fuzz_violation
    | `Corruption, _ ->
        let cfg =
          {
            Check.Corrupt.default with
            seed_start;
            seeds;
            log = (fun m -> Printf.eprintf "benchgen: fuzz: %s\n%!" m);
          }
        in
        let s = Check.Corrupt.run cfg in
        Printf.printf
          "corruption fuzz: %d cases (%d strict-ok, %d salvaged, %d \
           unrecoverable); %d generated, %d replayed; %d violations\n"
          s.Check.Corrupt.cases s.Check.Corrupt.strict_ok
          s.Check.Corrupt.salvaged s.Check.Corrupt.unrecoverable
          s.Check.Corrupt.generated s.Check.Corrupt.replayed
          (List.length s.Check.Corrupt.violations);
        List.iter
          (fun (v : Check.Corrupt.violation) ->
            Printf.printf "  seed %d app %s %s: %s\n" v.v_seed v.v_app
              v.v_mutation v.v_what)
          s.Check.Corrupt.violations;
        finish (Some s.Check.Corrupt.metrics);
        if s.Check.Corrupt.violations <> [] then exit exit_fuzz_violation
    | (`Differential | `Neighbor), replay -> (
    match replay with
    | Some path -> (
        match Check.Corpus.of_string (Check.Corpus.load ~path) with
        | Error m -> fail exit_invalid (path ^ ": " ^ m)
        | Ok (prog, meta) -> (
            let defect =
              match (defect, meta.Check.Corpus.defect) with
              | (Some _ as d), _ -> d
              | None, Some s -> Some (parse_defect s)
              | None, None -> None
            in
            match Check.Oracle.check ?defect ~coll_alg prog with
            | Ok st ->
                Printf.printf
                  "replay %s: PASS (%d messages on %d channels, %d \
                   collectives)\n"
                  path st.Check.Oracle.s_messages st.Check.Oracle.s_channels
                  st.Check.Oracle.s_collectives;
                finish None
            | Error v ->
                Printf.printf "replay %s: VIOLATION: %s\n" path
                  (Check.Oracle.to_string v);
                finish None;
                exit exit_fuzz_violation))
    | None ->
        let cfg =
          {
            Check.Campaign.default with
            seed_start;
            seeds;
            defect;
            out_dir = out;
            time_budget_s = budget;
            sink;
            log = (fun m -> Printf.eprintf "benchgen: fuzz: %s\n%!" m);
            coll_alg;
            gen_mode = (if mode = `Neighbor then `Neighbor else `Mixed);
          }
        in
        let s = Check.Campaign.run cfg in
        Printf.printf "fuzz: %d cases, %d passed, %d violations, %d skipped\n"
          s.Check.Campaign.cases s.Check.Campaign.passed
          (List.length s.Check.Campaign.counterexamples)
          s.Check.Campaign.skipped;
        List.iter
          (fun (cx : Check.Campaign.counterexample) ->
            Printf.printf "  seed %d: %s (%d phases%s)\n" cx.cx_seed
              (Check.Oracle.to_string cx.cx_violation)
              (List.length cx.cx_prog.Check.Gen.phases)
              (match cx.cx_path with Some p -> "; " ^ p | None -> ""))
          s.Check.Campaign.counterexamples;
        finish (Some s.Check.Campaign.metrics);
        if s.Check.Campaign.counterexamples <> [] then exit exit_fuzz_violation)
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run $ seeds_arg $ seed_start_arg $ defect_arg $ out_arg
      $ budget_arg $ replay_arg $ mode_arg $ coll_alg_arg $ workers_arg
      $ obs_term)

let serve_cmd =
  let doc =
    "Long-lived supervised service: accept many trace-to-benchmark jobs over \
     a line-delimited JSON protocol."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads one JSON request per line from stdin (and, with \
         $(b,--socket), from connections to a Unix-domain socket) and \
         answers one typed JSON response per line.  Submissions \
         ($(b,{\"op\":\"submit\",\"id\":...,\"trace\":PATH})  or \
         $(b,{...,\"app\":NAME,\"nranks\":N,\"cls\":C})) enter a bounded \
         FIFO queue; beyond $(b,--queue-depth) they are shed with a typed \
         $(b,rejected (queue_full)) response.  Each job runs the pipeline on \
         a pool of persistent forked workers ($(b,--workers), default 1), \
         deadline-killable, under a supervision policy: a \
         per-attempt wall-clock deadline, bounded retries with exponential \
         backoff and seeded jitter, and recovery escalation \
         (strict, then salvage, then best-effort) so a job whose strict \
         generation fails degrades gracefully instead of failing hard.  One \
         poisoned job — crash, hang, heap corruption — can never take down \
         the server.";
      `P
        "$(b,{\"op\":\"health\"}) reports queue depth and outcome counters; \
         $(b,{\"op\":\"drain\"}) (or end-of-input on stdin) finishes every \
         queued job and exits; $(b,{\"op\":\"shutdown\"}) cancels queued \
         jobs (one typed $(b,cancelled) response each) and exits.  Requests \
         may override the policy per job (fields $(b,deadline_s), \
         $(b,max_retries), $(b,backoff_base_s), $(b,backoff_factor), \
         $(b,backoff_max_s), $(b,jitter), $(b,escalate), $(b,recovery)).  \
         Exit status is 13 when the server cannot start (e.g. socket bind \
         failure).";
      `P
        "With $(b,--workers) > 1 jobs run concurrently on a pool of \
         persistent forked workers; with $(b,--listen) the server also \
         accepts TCP connections.  $(b,SIGTERM)/$(b,SIGINT) trigger a \
         graceful drain (finish live jobs, emit the summary, remove the \
         socket file).";
    ]
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Also listen on a Unix-domain socket at $(docv) (created at \
             start, removed at exit).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Also listen on TCP at $(docv).  HOST may be an address, a \
             hostname, or empty/$(b,*) for all interfaces; PORT 0 picks a \
             free port (the bound address is logged to stderr).")
  in
  let workers_arg =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Size of the persistent worker pool.  Jobs are dispatched \
             concurrently to idle workers; a crashed worker is restarted \
             with exponential backoff, a crash-looping worker slot is parked \
             by a circuit breaker, and a job that crashes 2 distinct workers \
             is quarantined with a typed $(b,poisoned) error.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Cap on accepted socket/TCP connections; beyond it a client \
             gets one typed $(b,rejected (conn_limit)) response and is \
             closed.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 16
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Per-connection cap on unresolved jobs; further submissions on \
             that connection are rejected with $(b,inflight_limit) until \
             responses drain.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Close a socket/TCP connection after $(docv) seconds with no \
             traffic and no unresolved jobs.")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission bound: jobs beyond $(docv) queued are shed with \
             $(b,rejected (queue_full)).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Default per-attempt wall-clock deadline; an attempt that \
             exceeds it is killed ($(b,deadline_exceeded)).")
  in
  let retries_arg =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Default retries per job after its first attempt.")
  in
  let backoff_base_arg =
    Arg.(
      value & opt float 0.05
      & info [ "backoff-base" ] ~docv:"SECONDS"
          ~doc:"Delay before the first retry.")
  in
  let backoff_factor_arg =
    Arg.(
      value & opt float 2.0
      & info [ "backoff-factor" ] ~docv:"F"
          ~doc:"Backoff multiplier per further retry.")
  in
  let backoff_max_arg =
    Arg.(
      value & opt float 5.0
      & info [ "backoff-max" ] ~docv:"SECONDS"
          ~doc:"Cap on the un-jittered backoff delay.")
  in
  let jitter_arg =
    Arg.(
      value & opt float 0.25
      & info [ "jitter" ] ~docv:"FRAC"
          ~doc:
            "Backoff jitter fraction: each delay is multiplied by a seeded \
             uniform draw from [1, 1+$(docv)).")
  in
  let no_escalate_arg =
    Arg.(
      value & flag
      & info [ "no-escalate" ]
          ~doc:
            "Do not escalate the recovery level across retries (every \
             attempt runs at $(b,--recovery)).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed for backoff jitter; a fixed seed makes retry schedules \
             reproducible.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-request-bytes" ] ~docv:"N"
          ~doc:
            "Reject request lines longer than $(docv) bytes with a typed \
             $(b,rejected (oversized)) response.")
  in
  let run socket listen workers max_conns max_inflight idle_timeout
      queue_depth deadline retries base factor cap jitter no_escalate seed
      recovery max_bytes obs =
    guarded @@ fun () ->
    if queue_depth < 1 then fail exit_invalid "--queue-depth must be >= 1";
    if workers < 1 then fail exit_invalid "--workers must be >= 1";
    if max_conns < 1 then fail exit_invalid "--max-conns must be >= 1";
    if max_inflight < 1 then fail exit_invalid "--max-inflight must be >= 1";
    (match idle_timeout with
    | Some t when t <= 0. -> fail exit_invalid "--idle-timeout must be > 0"
    | _ -> ());
    (match deadline with
    | Some d when d <= 0. -> fail exit_invalid "--deadline must be > 0"
    | _ -> ());
    let _sink, finish = obs_setup obs in
    let policy =
      {
        Serve.Policy.deadline_s = deadline;
        max_retries = retries;
        backoff_base_s = base;
        backoff_factor = factor;
        backoff_max_s = cap;
        jitter;
        escalate = not no_escalate;
        recovery;
      }
    in
    let cfg =
      {
        Serve.Server.default with
        socket;
        listen;
        queue_limit = queue_depth;
        wpolicy = { Serve.Pool.default_wpolicy with workers };
        policy;
        seed;
        max_request_bytes = max_bytes;
        max_conns;
        max_inflight;
        idle_timeout_s = idle_timeout;
        log = (fun m -> Printf.eprintf "benchgen: serve: %s\n%!" m);
      }
    in
    match Serve.Server.run cfg with
    | Error msg -> fail exit_serve msg
    | Ok metrics -> finish (Some metrics)
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ socket_arg $ listen_arg $ workers_arg $ max_conns_arg
      $ max_inflight_arg $ idle_timeout_arg $ queue_arg $ deadline_arg
      $ retries_arg $ backoff_base_arg $ backoff_factor_arg $ backoff_max_arg
      $ jitter_arg $ no_escalate_arg $ seed_arg $ recovery_arg `Strict
      $ max_bytes_arg $ obs_term)

let () =
  let doc = "automatic generation of executable communication specifications" in
  let info = Cmd.info "benchgen" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [
          list_cmd; coll_algs_cmd; trace_cmd; generate_cmd;
          generate_from_trace_cmd; run_cmd; replay_cmd; compare_cmd;
          extrapolate_cmd; stats_cmd; fuzz_cmd; salvage_cmd; serve_cmd;
        ]))
