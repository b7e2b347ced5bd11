(* The traced run: the pipeline re-assembled from each layer's public
   functions, in [Pipeline.run]'s own order and with the same arguments,
   with a timer around every call.  Nothing inside the library is
   instrumented; the spans live here, at the layer boundaries.

   Every function takes the accumulator the figures go into; the keys are
   the per-layer metric names of BENCHMARK.json.  The output checks
   compare what these functions produce against the untraced
   [Pipeline.run], so a drift between this re-assembly and the product
   shows up as a failed operation, not as a silently wrong number. *)

module M = Measure
module Trace = Scalatrace.Trace
module Pipeline = Benchgen.Pipeline

let coll_alg = Pipeline.default.coll_alg

(* The same observation hook [Pipeline.run] composes with the mpiP
   profiler when tracing an application. *)
let collective_counter metrics =
  {
    Mpisim.Hooks.nil with
    on_collective_complete =
      (fun ~time:_ ~comm:_ ~name ~participants:_ ->
        Obs.Metrics.inc metrics ~labels:[ ("op", name) ] "sim.collectives");
  }

(* Engine run with the tracer hook, then the inter-rank merge: what
   [Tracer.trace_run] does.  [~profiled] adds the hooks [Pipeline.run]
   passes for a [From_app] source. *)
let trace_app a ?(profiled = true) ?(engine_key = "mpisim.engine_s") ~nranks app
    =
  let tracer = Scalatrace.Tracer.create ~nranks () in
  let extra =
    if profiled then
      [
        Mpisim.Hooks.compose
          (Mpip.hook (Mpip.create ()))
          (collective_counter (Obs.Metrics.create ()));
      ]
    else []
  in
  let w0 = M.major_words () in
  let outcome =
    M.timed a engine_key (fun () ->
        Mpisim.Mpi.run
          ~hooks:(Scalatrace.Tracer.hook tracer :: extra)
          ~coll_alg ~nranks app)
  in
  M.add a "mpisim.major_words" (M.major_words () -. w0);
  M.add a "mpisim.events" (float_of_int outcome.Mpisim.Engine.events);
  let trace = M.timed a "scalatrace.merge_s" (fun () -> Scalatrace.Tracer.finish tracer) in
  M.add a "scalatrace.rsds" (float_of_int (Trace.rsd_count trace));
  (trace, outcome)

(* Sum of the stage timers around [f], the traced counterpart of one
   [Pipeline.run]: compared with the untraced call for
   [trace.overhead_pct]. *)
let stage_keys =
  [
    "mpisim.engine_s"; "scalatrace.merge_s"; "scalatrace.load_s";
    "align.align_s"; "wildcard.wildcard_s"; "codegen.codegen_s";
    "conceptual.pretty_s";
  ]

let stages (a : M.acc) f =
  let total () = List.fold_left (fun s k -> s +. M.acc_get a k) 0. stage_keys in
  let before = total () in
  let r = f () in
  M.add a "traced.generate_s" (total () -. before);
  r

let save a trace ~path =
  M.timed a "scalatrace.save_s" (fun () -> Scalatrace.Trace_io.save trace ~path);
  M.add a "scalatrace.trace_bytes" (float_of_int (Unix.stat path).Unix.st_size)

(* [Pipeline.run]'s strict loader for a [From_file] source. *)
let load a path =
  M.timed a "scalatrace.load_s" (fun () ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      Scalatrace.Trace_io.of_string ~path text)

(* Align (only when the trace needs it), wildcard (only when the
   pre-check finds wildcard receives), codegen, pretty-printing. *)
let generate a ?name trace =
  let trace =
    M.timed a "align.align_s" (fun () ->
        if Trace.has_unaligned_collectives trace then
          (Benchgen.Align.run_policy ~policy:`Strict trace).Benchgen.Align.out
        else trace)
  in
  let w0 = M.major_words () in
  let trace, _ =
    M.timed a "wildcard.wildcard_s" (fun () ->
        Benchgen.Wildcard.resolve_if_needed ~on_fallback:ignore trace)
  in
  M.add a "wildcard.major_mwords" ((M.major_words () -. w0) /. 1e6);
  let program =
    M.timed a "codegen.codegen_s" (fun () -> Benchgen.Codegen.program ?name trace)
  in
  let text = M.timed a "conceptual.pretty_s" (fun () -> Conceptual.Pretty.program program) in
  M.add a "codegen.statements" (float_of_int (Conceptual.Ast.size program));
  M.add a "conceptual.text_bytes" (float_of_int (String.length text));
  (program, text)

(* [Pipeline.validate]: replay the generated program under the mpiP
   hook, rerun the original under it, diff the two profiles. *)
let validate a ~nranks app program =
  let gen = Mpip.create () in
  let hooks =
    [ Mpisim.Hooks.compose (Mpip.hook gen) (collective_counter (Obs.Metrics.create ())) ]
  in
  ignore
    (M.timed a "conceptual.lower_s" (fun () ->
         Conceptual.Lower.run ~coll_alg ~hooks ~nranks program));
  M.timed a "mpip.compare_s" (fun () ->
      let orig = Mpip.create () in
      ignore (Mpisim.Mpi.run ~coll_alg ~hooks:[ Mpip.hook orig ] ~nranks app);
      Mpip.diff orig gen)

(* The output checks every generated program goes through: the text
   parses back to the program it was printed from. *)
let check_parse a ~what program text =
  let ok = try Conceptual.Ast.equal (Conceptual.Parse.program text) program with _ -> false in
  M.check a ok (what ^ ": generated text does not parse back to its program")

let check_same_text a ~what ~expected text =
  M.check a (String.equal expected text)
    (what ^ ": traced layer sequence and Pipeline.run generated different text")
