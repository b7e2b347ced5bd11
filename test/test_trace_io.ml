open Mpisim
open Scalatrace

let t name f = Alcotest.test_case name `Quick f

module Pipeline = Benchgen.Pipeline

(* The generated report for [trace] under the default configuration. *)
let report_of ?name trace =
  match Pipeline.run { Pipeline.default with name } (Pipeline.From_trace trace) with
  | Ok (a, _) -> a.Pipeline.report
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let seq_sig trace rank =
  let out = ref [] in
  let rec go cursor =
    match Benchgen.Traversal.peek cursor with
    | None -> ()
    | Some (e, after) ->
        out :=
          ( Event.kind_name e.Event.kind,
            Event.peer_of e ~rank ~nranks:(Trace.nranks trace),
            e.Event.bytes, e.Event.tag, e.Event.comm )
          :: !out;
        go after
  in
  go (Benchgen.Traversal.start (Trace.project trace ~rank));
  List.rev !out

let roundtrip_equal a b =
  Trace.nranks a = Trace.nranks b
  && Trace.rsd_count a = Trace.rsd_count b
  && Trace.event_count a = Trace.event_count b
  && List.for_all
       (fun r -> seq_sig a r = seq_sig b r)
       (List.init (Trace.nranks a) Fun.id)

let app_roundtrip name =
  t (name ^ " trace round-trips through the file format") (fun () ->
      let app = Option.get (Apps.Registry.find name) in
      let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
      let trace, _ = Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.S ()) in
      let trace' = Trace_io.of_string (Trace_io.to_framed trace) in
      Alcotest.(check bool) "round-trip" true (roundtrip_equal trace trace');
      (* timing means must survive *)
      let total t =
        let s = ref 0. in
        Tnode.iter_leaves (fun e -> s := !s +. Util.Histogram.sum e.Event.dtime) (Trace.nodes t);
        !s
      in
      Alcotest.(check (float 1e-9)) "timing sum" (total trace) (total trace'))

(* A framed file assembled frame by frame, for hand-made damage. *)
let framed frames =
  "scalatrace-frames 3\n"
  ^ String.concat ""
      (List.map
         (fun (kind, payload) ->
           Trace_io.frame_header ~kind ~payload ^ "\n" ^ payload ^ "\n")
         frames)
  ^ "frame end 0 00000000\n"

(* A one-rank file whose only chunk is [chunk]. *)
let one_chunk chunk =
  framed
    [
      ("header", "nranks 1");
      ("comms", "comm 0 0:0:1");
      ("chunk:0", chunk);
      ("timing", "events 0\nchunks 1\ncount 0 0:0:1");
    ]

let rejected text =
  match Trace_io.of_string text with
  | _ -> None
  | exception Trace_io.Format_error msg -> Some msg

let unit_tests =
  [
    t "generation from a reloaded trace is identical" (fun () ->
        let app = Option.get (Apps.Registry.find "lu") in
        let trace, _ = Tracer.trace_run ~nranks:8 (app.program ~cls:Apps.Params.S ()) in
        let direct = report_of ~name:"lu" trace in
        let reloaded = report_of ~name:"lu" (Trace_io.of_string (Trace_io.to_framed trace)) in
        Alcotest.(check string) "same benchmark" direct.text reloaded.text);
    t "save/load through a file" (fun () ->
        let app = Option.get (Apps.Registry.find "ep") in
        let trace, _ = Tracer.trace_run ~nranks:4 (app.program ~cls:Apps.Params.S ()) in
        let path = Filename.temp_file "trace" ".stf" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Trace_io.save trace ~path;
            Alcotest.(check bool) "round-trip" true
              (roundtrip_equal trace (Trace_io.load ~path))));
    t "bad magic rejected" (fun () ->
        Alcotest.(check bool) "raises" true
          (rejected "something else\n" <> None);
        (* the retired line format and v2 container are no longer read *)
        Alcotest.(check bool) "line format" true
          (rejected "scalatrace-trace 1\nnranks 1\n" <> None);
        Alcotest.(check (option string))
          "v2 container" (Some "line 1: not a scalatrace trace (bad magic \"scalatrace-frames 2\")")
          (rejected
             "scalatrace-frames 2\nframe header 8 d9dd6a18\nnranks 2\nframe end 0 00000000\n"));
    t "unterminated loop rejected" (fun () ->
        Alcotest.(check bool) "raises" true (rejected (one_chunk "loop 5") <> None));
    t "unknown op rejected with line number" (fun () ->
        match
          rejected
            (one_chunk
               "loop 2\n\
               \  event MPI_Bogus peer=none bytes=0 vec=- tag=0 comm=0 \
                ranks=0:0:1 dt=1;0;0;0;0 site=\"f\" 1 2 \"\"\n\
                end")
        with
        | None -> Alcotest.fail "accepted an unknown operation"
        | Some msg ->
            Alcotest.(check string) "line of the chunk" "line 2"
              (String.sub msg 0 (min 6 (String.length msg))));
    t "wildcard and map peers survive" (fun () ->
        let s1 = Mpi.site __POS__ and s2 = Mpi.site __POS__ and s3 = Mpi.site __POS__ in
        let prog (ctx : Mpi.ctx) =
          (if ctx.rank = 0 then ignore (Mpi.recv ~site:s1 ctx ~src:Call.Any_source ~bytes:8)
           else if ctx.rank = 1 then Mpi.send ~site:s2 ctx ~dst:0 ~bytes:8);
          Mpi.finalize ~site:s3 ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:3 prog in
        let trace' = Trace_io.of_string (Trace_io.to_framed trace) in
        Alcotest.(check bool) "still wild" true (Trace.has_wildcards trace'));
  ]

(* Loading changes nothing: generating from a saved file gives the
   in-memory trace's benchmark, byte for byte, and re-saving the loaded
   trace reproduces the file. *)
let from_file_is_from_trace (app : Apps.Registry.app) =
  t (app.name ^ " From_file text equals From_trace at 8 and 64 ranks") (fun () ->
      List.iter
        (fun wanted ->
          let nranks = Apps.Registry.fit_nranks app ~wanted in
          let trace, _ =
            Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.W ())
          in
          let bytes = Trace_io.to_framed trace in
          let path = Filename.temp_file "trace" ".stf" in
          let from_file =
            Fun.protect
              ~finally:(fun () -> Sys.remove path)
              (fun () ->
                Out_channel.with_open_bin path (fun oc ->
                    Out_channel.output_string oc bytes);
                match
                  Pipeline.run { Pipeline.default with name = Some app.name }
                    (Pipeline.From_file path)
                with
                | Ok (a, _) -> a.Pipeline.report.text
                | Error e -> Alcotest.fail (Pipeline.error_to_string e))
          in
          let what = Printf.sprintf "%s at %d ranks" app.name nranks in
          Alcotest.(check string) (what ^ ": re-saved bytes") bytes
            (Trace_io.to_framed (Trace_io.of_string bytes));
          Alcotest.(check string) (what ^ ": benchmark text")
            (report_of ~name:app.name trace).text from_file)
        [ 8; 64 ])

let traced_bytes name ~nranks =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted:nranks in
  let trace, _ = Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.W ()) in
  Trace_io.to_framed trace

let size_tests =
  [
    t "trace bytes stay flat in the rank count (EP, stencil2d)" (fun () ->
        (* the file holds the merged trace and an interval-coded manifest,
           so SPMD codes cost nearly the same bytes at any scale *)
        List.iter
          (fun (name, counts) ->
            let base = String.length (traced_bytes name ~nranks:64) in
            List.iter
              (fun nranks ->
                let n = String.length (traced_bytes name ~nranks) in
                if abs (n - base) * 20 > base then
                  Alcotest.failf "%s: %d bytes at %d ranks vs %d at 64 (over 5%%)"
                    name n nranks base)
              counts)
          [ ("ep", [ 256; 1024 ]); ("stencil2d", [ 256 ]) ]);
    t "a rank count beyond the file's byte length loads strictly" (fun () ->
        let bytes = traced_bytes "ep" ~nranks:2048 in
        Alcotest.(check bool)
          (Printf.sprintf "%d bytes < 2048" (String.length bytes))
          true
          (String.length bytes < 2048);
        Alcotest.(check int) "nranks" 2048
          (Trace.nranks (Trace_io.of_string bytes)));
  ]

let suite =
  List.map app_roundtrip [ "bt"; "cg"; "ep"; "ft"; "is"; "lu"; "mg"; "sp"; "sweep3d" ]
  @ unit_tests @ size_tests
  @ List.map from_file_is_from_trace Apps.Registry.all
