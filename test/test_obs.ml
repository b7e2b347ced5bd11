(* The observability layer: metrics registry, sink/exporter golden
   output, hook composition, pipeline spans, and the pipeline defaults
   and typed errors a nil-sink run keeps. *)

module Json = Obs.Json
module Sink = Obs.Sink
module Metrics = Obs.Metrics
module Exporter = Obs.Exporter
module Pipeline = Benchgen.Pipeline

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let json_tests =
  [
    t "numbers render deterministically" (fun () ->
        let s f = Json.to_string (Json.Num f) in
        Alcotest.(check string) "integral" "3" (s 3.0);
        Alcotest.(check string) "negative integral" "-17" (s (-17.));
        Alcotest.(check string) "fractional" "12.5" (s 12.5);
        Alcotest.(check string) "zero" "0" (s 0.));
    t "round-trip through parse" (fun () ->
        let v =
          Json.Obj
            [
              ("a", Json.Arr [ Json.Num 1.; Json.Bool true; Json.Null ]);
              ("s", Json.Str "x \"quoted\"\nline");
              ("o", Json.Obj [ ("k", Json.Num 2.5) ]);
            ]
        in
        let s = Json.to_string v in
        Alcotest.(check bool) "parse(to_string v) = v" true (Json.parse s = v));
    t "malformed input raises Parse_error" (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | exception Json.Parse_error _ -> ()
            | _ -> Alcotest.failf "accepted malformed %S" s)
          [ "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"open"; "1 2" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Exporter: golden Chrome trace                                       *)

let sample_recorder () =
  let r = Exporter.recorder () in
  let s = Exporter.sink r in
  Sink.span_begin s ~pid:Sink.pipeline_pid ~tid:0 ~cat:"stage" ~ts:0. "trace";
  Sink.counter s ~pid:Sink.engine_pid ~tid:3 ~ts:12.5 "queues"
    [ ("posted", 2.); ("unexpected", 0.) ];
  Sink.instant s ~pid:Sink.engine_pid ~tid:1 ~cat:"fault"
    ~args:[ ("dst", Sink.A_int 0) ] ~ts:14. "fault.drop";
  Sink.span_end s ~pid:Sink.pipeline_pid ~tid:0 ~ts:20. "trace";
  r

let golden_chrome =
  String.concat ""
    [
      {|{"traceEvents":[|};
      {|{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"pipeline"}},|};
      {|{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"engine"}},|};
      {|{"name":"trace","ph":"B","pid":1,"tid":0,"ts":0,"cat":"stage"},|};
      {|{"name":"queues","ph":"C","pid":2,"tid":3,"ts":12.5,"args":{"posted":2,"unexpected":0}},|};
      {|{"name":"fault.drop","ph":"i","pid":2,"tid":1,"ts":14,"cat":"fault","args":{"dst":0},"s":"t"},|};
      {|{"name":"trace","ph":"E","pid":1,"tid":0,"ts":20}|};
      {|],"displayTimeUnit":"ms"}|};
    ]

let exporter_tests =
  [
    t "chrome export matches golden byte-for-byte" (fun () ->
        Alcotest.(check string)
          "golden" golden_chrome
          (Exporter.to_chrome_string (sample_recorder ())));
    t "independent identical recordings serialize identically" (fun () ->
        Alcotest.(check string)
          "bit-reproducible"
          (Exporter.to_chrome_string (sample_recorder ()))
          (Exporter.to_chrome_string (sample_recorder ())));
    t "golden output passes structural validation" (fun () ->
        match Exporter.validate_chrome_string golden_chrome with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
    t "validator rejects mismatched and unclosed spans" (fun () ->
        let doc evs =
          Json.to_string
            (Json.Obj [ ("traceEvents", Json.Arr evs) ])
        in
        let span ph name =
          Json.Obj
            [
              ("name", Json.Str name); ("ph", Json.Str ph);
              ("pid", Json.Num 1.); ("tid", Json.Num 0.); ("ts", Json.Num 1.);
            ]
        in
        (match
           Exporter.validate_chrome_string
             (doc [ span "B" "a"; span "E" "b" ])
         with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "accepted E closing the wrong span");
        match Exporter.validate_chrome_string (doc [ span "B" "a" ]) with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "accepted an unclosed span");
    t "nil sink drops everything, tee feeds both" (fun () ->
        Sink.span_begin Sink.nil ~pid:1 ~tid:0 ~ts:0. "x";
        Sink.span_end Sink.nil ~pid:1 ~tid:0 ~ts:1. "x";
        let r1 = Exporter.recorder () and r2 = Exporter.recorder () in
        let s = Sink.tee (Exporter.sink r1) (Exporter.sink r2) in
        Sink.instant s ~pid:1 ~tid:0 ~ts:0. "hello";
        Alcotest.(check int) "r1" 1 (Exporter.event_count r1);
        Alcotest.(check int) "r2" 1 (Exporter.event_count r2));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics: golden JSONL                                               *)

let golden_metrics =
  String.concat "\n"
    [
      {|{"name":"lat","labels":{},"type":"histogram","count":2,"sum":4,"min":1,"max":3,"mean":2}|};
      {|{"name":"mpi.calls","labels":{"op":"MPI_Send"},"type":"counter","value":3}|};
      {|{"name":"trace.input_rsds","labels":{},"type":"gauge","value":42}|};
      "";
    ]

let metrics_tests =
  [
    t "jsonl dump matches golden and sorts by (name, labels)" (fun () ->
        let m = Metrics.create () in
        Metrics.set m "trace.input_rsds" 42.;
        Metrics.inc m ~labels:[ ("op", "MPI_Send") ] ~by:3 "mpi.calls";
        Metrics.observe m "lat" 1.0;
        Metrics.observe m "lat" 3.0;
        Alcotest.(check string) "golden" golden_metrics (Metrics.to_jsonl m));
    t "every dumped line re-parses" (fun () ->
        let m = Metrics.create () in
        Metrics.inc m ~labels:[ ("b", "2"); ("a", "1") ] "c";
        Metrics.set m "g" 1.5;
        Metrics.observe m "h" 7.;
        String.split_on_char '\n' (Metrics.to_jsonl m)
        |> List.filter (fun l -> l <> "")
        |> List.iter (fun l -> ignore (Metrics.line_of_string l)));
    t "label order does not split instruments" (fun () ->
        let m = Metrics.create () in
        Metrics.inc m ~labels:[ ("a", "1"); ("b", "2") ] "c";
        Metrics.inc m ~labels:[ ("b", "2"); ("a", "1") ] "c";
        Alcotest.(check (option int))
          "merged" (Some 2)
          (Metrics.counter_value m ~labels:[ ("a", "1"); ("b", "2") ] "c"));
    t "merge_into adds counters, overwrites gauges, merges histograms"
      (fun () ->
        let a = Metrics.create () and b = Metrics.create () in
        Metrics.inc a ~by:2 "c";
        Metrics.inc b ~by:5 "c";
        Metrics.set a "g" 1.;
        Metrics.set b "g" 9.;
        Metrics.observe a "h" 1.;
        Metrics.observe b "h" 3.;
        Metrics.merge_into a b;
        Alcotest.(check (option int)) "counter" (Some 7) (Metrics.counter_value a "c");
        Alcotest.(check (option (float 0.))) "gauge" (Some 9.) (Metrics.gauge_value a "g");
        match Metrics.histogram_stats a "h" with
        | Some (count, sum, _, _, _) ->
            Alcotest.(check int) "hist count" 2 count;
            Alcotest.(check (float 1e-9)) "hist sum" 4. sum
        | None -> Alcotest.fail "histogram lost in merge");
  ]

(* ------------------------------------------------------------------ *)
(* Hooks: compose ordering, observer bridge, collective completions    *)

let hooks_tests =
  [
    t "compose runs a's callback before b's at every point" (fun () ->
        let log = ref [] in
        let mk tag =
          {
            Mpisim.Hooks.nil with
            on_fault = (fun ~time:_ _ -> log := (tag ^ "fault") :: !log);
            on_collective_complete =
              (fun ~time:_ ~comm:_ ~name:_ ~participants:_ ->
                log := (tag ^ "coll") :: !log);
          }
        in
        let h = Mpisim.Hooks.compose (mk "a.") (mk "b.") in
        h.on_fault ~time:0.
          (Mpisim.Hooks.F_drop { src = 0; dst = 1; bytes = 8; attempt = 0 });
        h.on_collective_complete ~time:0. ~comm:0 ~name:"MPI_Barrier"
          ~participants:[| 0 |];
        Alcotest.(check (list string))
          "order"
          [ "a.fault"; "b.fault"; "a.coll"; "b.coll" ]
          (List.rev !log));
    t "observer bridges faults and collectives into instants" (fun () ->
        let r = Exporter.recorder () in
        let h = Mpisim.Hooks.observer (Exporter.sink r) in
        h.on_fault ~time:2e-6
          (Mpisim.Hooks.F_drop { src = 1; dst = 0; bytes = 64; attempt = 0 });
        h.on_collective_complete ~time:3e-6 ~comm:0 ~name:"MPI_Barrier"
          ~participants:[| 0; 1 |];
        let names =
          List.filter_map
            (function
              | Sink.Instant { name; ts; _ } -> Some (name, ts)
              | _ -> None)
            (Exporter.events r)
        in
        Alcotest.(check (list (pair string (float 1e-9))))
          "instants (virtual microseconds)"
          [ ("fault.drop", 2.); ("collective.MPI_Barrier", 3.) ]
          names);
    t "observer of a disabled sink is nil" (fun () ->
        let h = Mpisim.Hooks.observer Sink.nil in
        Alcotest.(check bool) "nil" true (h == Mpisim.Hooks.nil));
    t "engine fires on_collective_complete once per operation" (fun () ->
        let completions = ref [] in
        let hook =
          {
            Mpisim.Hooks.nil with
            on_collective_complete =
              (fun ~time:_ ~comm:_ ~name ~participants ->
                completions := (name, Array.length participants) :: !completions);
          }
        in
        let nranks = 4 in
        let s1 = Mpisim.Mpi.site __POS__ and s2 = Mpisim.Mpi.site __POS__ in
        let s3 = Mpisim.Mpi.site __POS__ in
        let app (ctx : Mpisim.Mpi.ctx) =
          Mpisim.Mpi.barrier ~site:s1 ctx;
          Mpisim.Mpi.allreduce ~site:s2 ctx ~bytes:8;
          Mpisim.Mpi.finalize ~site:s3 ctx
        in
        ignore (Mpisim.Mpi.run ~hooks:[ hook ] ~nranks app);
        let count name =
          List.length (List.filter (fun (n, _) -> n = name) !completions)
        in
        Alcotest.(check int) "one barrier" 1 (count "MPI_Barrier");
        Alcotest.(check int) "one allreduce" 1 (count "MPI_Allreduce");
        List.iter
          (fun (name, p) ->
            Alcotest.(check int) (name ^ " participants") nranks p)
          !completions);
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline spans and engine samples                                   *)

let ring_app (ctx : Mpisim.Mpi.ctx) =
  let n = ctx.nranks in
  for _ = 1 to 5 do
    let r =
      Mpisim.Mpi.irecv ctx ~src:(Mpisim.Call.Rank ((ctx.rank + n - 1) mod n))
        ~bytes:1024
    in
    let s = Mpisim.Mpi.isend ctx ~dst:((ctx.rank + 1) mod n) ~bytes:1024 in
    ignore (Mpisim.Mpi.waitall ctx [ r; s ]);
    Mpisim.Mpi.compute ctx 1e-6
  done;
  Mpisim.Mpi.finalize ctx

let run_instrumented () =
  let r = Exporter.recorder () in
  let cfg = { Pipeline.default with obs = Exporter.sink r } in
  match Pipeline.run cfg (Pipeline.From_app { nranks = 4; app = ring_app }) with
  | Ok (a, _) -> (r, a)
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let span_tests =
  [
    t "every pipeline stage opens a span; trace validates" (fun () ->
        let r, _ = run_instrumented () in
        let doc = Exporter.to_chrome r in
        (match Exporter.validate_chrome doc with
        | Ok () -> ()
        | Error msg -> Alcotest.fail msg);
        let names = Exporter.span_names doc in
        List.iter
          (fun stage ->
            Alcotest.(check bool)
              (stage ^ " span present") true (List.mem stage names))
          [ "trace"; "align"; "wildcard"; "codegen" ]);
    t "engine emits per-rank and global counter samples" (fun () ->
        let r, _ = run_instrumented () in
        let counters =
          List.filter_map
            (function Sink.Counter { name; _ } -> Some name | _ -> None)
            (Exporter.events r)
        in
        Alcotest.(check bool) "queues" true (List.mem "queues" counters);
        Alcotest.(check bool) "engine" true (List.mem "engine" counters));
    t "same-seed instrumented runs export byte-identical traces" (fun () ->
        let r1, _ = run_instrumented () and r2, _ = run_instrumented () in
        Alcotest.(check string)
          "chrome" (Exporter.to_chrome_string r1) (Exporter.to_chrome_string r2));
    t "same-seed runs dump byte-identical metrics" (fun () ->
        let _, a1 = run_instrumented () and _, a2 = run_instrumented () in
        Alcotest.(check string)
          "jsonl" (Metrics.to_jsonl a1.Pipeline.metrics)
          (Metrics.to_jsonl a2.Pipeline.metrics));
    t "From_app populates simulator and mpiP metrics" (fun () ->
        let _, a = run_instrumented () in
        let m = a.Pipeline.metrics in
        (match Metrics.counter_value m "sim.events" with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.fail "sim.events missing");
        match Metrics.counter_value m ~labels:[ ("op", "MPI_Isend") ] "mpi.calls" with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.fail "mpi.calls{op=MPI_Isend} missing");
    t "validate appends fidelity metrics and spans" (fun () ->
        let r, a = run_instrumented () in
        let cfg = { Pipeline.default with obs = Exporter.sink r } in
        let fid = Pipeline.validate cfg ~nranks:4 ring_app a in
        Alcotest.(check bool)
          "error is finite" true (Float.is_finite fid.Pipeline.f_error_pct);
        (match Metrics.gauge_value a.Pipeline.metrics "fidelity.error_pct" with
        | Some _ -> ()
        | None -> Alcotest.fail "fidelity.error_pct gauge missing");
        let names = Exporter.span_names (Exporter.to_chrome r) in
        List.iter
          (fun stage ->
            Alcotest.(check bool)
              (stage ^ " span present") true (List.mem stage names))
          [ "replay"; "compare" ]);
  ]

(* ------------------------------------------------------------------ *)
(* Pipeline defaults and typed errors under a nil sink                 *)

let default_tests =
  [
    t "Pipeline.default pins coll_alg to the monolithic schedule" (fun () ->
        Alcotest.(check string)
          "default is monolithic" "monolithic"
          (Mpisim.Coll_alg.name Pipeline.default.coll_alg));
    t "Pipeline.run types the Figure-5 deadlock input" (fun () ->
        (* Figure 5's latent-deadlock shape comes back as a typed error,
           not an exception. *)
        let f1 = Mpisim.Mpi.site __POS__ and f2 = Mpisim.Mpi.site __POS__ in
        let f3 = Mpisim.Mpi.site __POS__ and f4 = Mpisim.Mpi.site __POS__ in
        let fig5 (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank = 0 then Mpisim.Mpi.compute ctx 1e-3;
          (if ctx.rank = 1 then begin
             ignore
               (Mpisim.Mpi.recv ~site:f1 ctx ~src:Mpisim.Call.Any_source ~bytes:8);
             ignore (Mpisim.Mpi.recv ~site:f2 ctx ~src:(Mpisim.Call.Rank 0) ~bytes:8)
           end
           else if ctx.rank = 0 || ctx.rank = 2 then
             Mpisim.Mpi.send ~site:f3 ctx ~dst:1 ~bytes:8);
          Mpisim.Mpi.finalize ~site:f4 ctx
        in
        let trace, _ = Scalatrace.Tracer.trace_run ~nranks:3 fig5 in
        match
          Pipeline.run
            { Pipeline.default with strategy = Some `Traversal }
            (Pipeline.From_trace trace)
        with
        | Error (Pipeline.E_potential_deadlock _) -> ()
        | Ok _ -> Alcotest.fail "Pipeline.run missed the deadlock"
        | Error e -> Alcotest.failf "wrong error: %s" (Pipeline.error_to_string e));
  ]

let suite =
  json_tests @ exporter_tests @ metrics_tests @ hooks_tests @ span_tests
  @ default_tests
