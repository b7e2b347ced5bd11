(* The two pipeline workloads.

   collective-wide: [Pipeline.run (From_app ...)] then [Pipeline.validate]
   — the [benchgen generate] + [benchgen compare] flow — on EP and FT at
   high rank counts, where the engine's collective path and the replay
   dominate and the trace has only a handful of RSDs.

   trace-roundtrip: [Tracer.trace_run] + [Trace_io.save], then
   [Pipeline.run (From_file ...)] and writing the .ncptl text — the
   [benchgen trace -o] + [benchgen generate-from-trace] flow — on MG (the
   high-RSD trace) and LU (the wildcard receives).  Nothing is replayed.

   Each command of a flow runs in its own fresh process (one per app for
   collective-wide, two for trace-roundtrip; a traced pass adds one for
   the untraced [Pipeline.run] it is compared with), so a pass's peak
   heap is the largest a user's command would reach. *)

module M = Measure
module Pipeline = Benchgen.Pipeline

type app = { name : string; nranks : int }

let cls = Apps.Params.C

let program ~seed name =
  match Apps.Registry.find name with
  | Some a -> a.Apps.Registry.program ~cls ~seed ()
  | None -> invalid_arg ("unknown app " ^ name)

let generation_error what e =
  Printf.sprintf "%s: Pipeline.run failed: %s" what (Pipeline.error_to_string e)

let what app = Printf.sprintf "%s/%d" app.name app.nranks

(* ------------------------------------------------------------------ *)
(* collective-wide                                                     *)

let collective_app ~seed app () =
  let a = M.acc () and what = what app in
  let prog = program ~seed app.name in
  let w0 = M.allocated_words () in
  match
    M.timed a "generate_s" (fun () ->
        Pipeline.run Pipeline.default
          (Pipeline.From_app { nranks = app.nranks; app = prog }))
  with
  | Error e -> M.failure (generation_error what e)
  | Ok (art, _) ->
      let fid =
        M.timed a "validate_s" (fun () ->
            Pipeline.validate Pipeline.default ~nranks:app.nranks prog art)
      in
      M.add a "alloc_mwords" ((M.allocated_words () -. w0) /. 1e6);
      let events =
        fid.f_original.events + fid.f_generated.events
        + Option.fold ~none:0 ~some:(fun o -> o.Mpisim.Engine.events) art.trace_outcome
      in
      M.add a "events" (float_of_int events);
      let heap_mb = M.top_heap_mb () in
      Layers.check_parse a ~what art.report.program art.report.text;
      M.check a (fid.f_mpip_diff = [])
        (what ^ ": mpiP diff not empty: " ^ String.concat "; " fid.f_mpip_diff);
      M.sample_of ~heap_mb a

(* The untraced [Pipeline.run] a traced run is compared with, in a fresh
   process of its own so that neither side runs on a heap the other has
   already grown.  Its text is kept for the byte-identity check. *)
let untraced_path ~dir app =
  Filename.concat dir (Printf.sprintf "%s-%d.untraced.ncptl" app.name app.nranks)

let untraced_generate ~dir app source () =
  let a = M.acc () in
  let text =
    match M.timed a "untraced.generate_s" (fun () -> Pipeline.run Pipeline.default source) with
    | Ok (art, _) -> art.report.text
    | Error e -> generation_error (what app) e
  in
  Out_channel.with_open_bin (untraced_path ~dir app) (fun oc -> output_string oc text);
  { (M.sample_of a) with ops = 0; failed = 0 }

let check_untraced a ~dir app text =
  let expected = In_channel.with_open_bin (untraced_path ~dir app) In_channel.input_all in
  Layers.check_same_text a ~what:(what app) ~expected text

let collective_app_traced ~seed ~dir app () =
  let a = M.acc () and what = what app in
  let prog = program ~seed app.name in
  let program, text =
    Layers.stages a (fun () ->
        let trace, _ = Layers.trace_app a ~nranks:app.nranks prog in
        Layers.generate a trace)
  in
  let diff = Layers.validate a ~nranks:app.nranks prog program in
  check_untraced a ~dir app text;
  Layers.check_parse a ~what program text;
  M.check a (diff = []) (what ^ ": mpiP diff not empty: " ^ String.concat "; " diff);
  M.sample_of a

(* Engine time of the first app at half its rank count, for
   [mpisim.engine_exp]. *)
let engine_half ~seed app () =
  let a = M.acc () in
  let nranks = app.nranks / 2 in
  ignore (Layers.trace_app a ~engine_key:"half" ~nranks (program ~seed app.name));
  { M.empty with sums = [ ("mpisim.engine_half_s", M.acc_get a "half") ] }

(* ------------------------------------------------------------------ *)
(* trace-roundtrip                                                     *)

let trace_path ~dir app = Filename.concat dir (Printf.sprintf "%s-%d.trace" app.name app.nranks)

(* The [Pipeline.run (From_trace ...)] text of the in-memory trace, kept
   next to the file for the From_file check.  A run's passes trace the
   same app with the same seed, so the first pass's text serves them all
   and a pass whose trace differs fails the check. *)
let write_expected path trace =
  if not (Sys.file_exists (path ^ ".expected")) then
  match Pipeline.run { Pipeline.default with name = Some path } (Pipeline.From_trace trace) with
  | Ok (art, _) -> Out_channel.with_open_bin (path ^ ".expected") (fun oc -> output_string oc art.report.text)
  | Error e -> Out_channel.with_open_bin (path ^ ".expected") (fun oc -> output_string oc (Pipeline.error_to_string e))

let check_expected a ~what path text =
  let expected = In_channel.with_open_bin (path ^ ".expected") In_channel.input_all in
  M.check a (String.equal expected text)
    (what ^ ": From_file text differs from From_trace on the in-memory trace")

(* [benchgen trace -o]: trace, save. *)
let roundtrip_trace ~seed ~dir app () =
  let a = M.acc () and path = trace_path ~dir app in
  let prog = program ~seed app.name in
  let w0 = M.allocated_words () in
  let trace, outcome =
    M.timed a "trace_save_s" (fun () ->
        let trace, outcome = Scalatrace.Tracer.trace_run ~nranks:app.nranks prog in
        Scalatrace.Trace_io.save trace ~path;
        (trace, outcome))
  in
  M.add a "alloc_mwords" ((M.allocated_words () -. w0) /. 1e6);
  M.add a "events" (float_of_int outcome.Mpisim.Engine.events);
  let heap_mb = M.top_heap_mb () in
  write_expected path trace;
  { (M.sample_of ~heap_mb a) with ops = 0; failed = 0 }

(* [benchgen generate-from-trace -o]: load, generate, write. *)
let roundtrip_generate ~dir app () =
  let a = M.acc () and path = trace_path ~dir app and what = what app in
  let w0 = M.allocated_words () in
  match M.timed a "generate_s" (fun () -> Pipeline.run Pipeline.default (Pipeline.From_file path)) with
  | Error e -> M.failure (generation_error what e)
  | Ok (art, _) ->
      M.timed a "write_s" (fun () ->
          Out_channel.with_open_bin (path ^ ".ncptl") (fun oc -> output_string oc art.report.text));
      M.add a "alloc_mwords" ((M.allocated_words () -. w0) /. 1e6);
      let heap_mb = M.top_heap_mb () in
      Layers.check_parse a ~what art.report.program art.report.text;
      check_expected a ~what path art.report.text;
      M.sample_of ~heap_mb a

let roundtrip_trace_traced ~seed ~dir app () =
  let a = M.acc () and path = trace_path ~dir app in
  let trace, _ = Layers.trace_app a ~profiled:false ~nranks:app.nranks (program ~seed app.name) in
  Layers.save a trace ~path;
  write_expected path trace;
  { (M.sample_of a) with ops = 0; failed = 0 }

let roundtrip_generate_traced ~dir app () =
  let a = M.acc () and path = trace_path ~dir app and what = what app in
  let program, text = Layers.stages a (fun () -> Layers.generate a ~name:path (Layers.load a path)) in
  check_untraced a ~dir app text;
  Layers.check_parse a ~what program text;
  check_expected a ~what path text;
  M.sample_of a

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)

(* One pass over [apps]: every app's commands, each in a fresh process. *)
let collective_pass ~traced ~seed ~dir apps () =
  let per_app i app =
    if not traced then M.sample_in_child (what app) (collective_app ~seed app)
    else
      let source = Pipeline.From_app { nranks = app.nranks; app = program ~seed app.name } in
      let u = M.sample_in_child (what app) (untraced_generate ~dir app source) in
      let s = M.merge u (M.sample_in_child (what app) (collective_app_traced ~seed ~dir app)) in
      if i > 0 then s
      else
        let half = M.sample_in_child (what app) (engine_half ~seed app) in
        M.merge s
          { half with sums = ("mpisim.engine_full_s", M.get s "mpisim.engine_s") :: half.sums }
  in
  M.merge_all (List.mapi per_app apps)

let roundtrip_pass ~traced ~seed ~dir apps () =
  let per_app app =
    (* In order: each command reads what the one before it wrote. *)
    let children =
      if traced then
        [
          roundtrip_trace_traced ~seed ~dir app;
          untraced_generate ~dir app (Pipeline.From_file (trace_path ~dir app));
          roundtrip_generate_traced ~dir app;
        ]
      else [ roundtrip_trace ~seed ~dir app; roundtrip_generate ~dir app ]
    in
    M.merge_all (List.map (M.sample_in_child (what app)) children)
  in
  M.merge_all (List.map per_app apps)
