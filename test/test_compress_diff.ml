(* Differential tests for the array-stack tail compressor.

   {!Scalatrace.Compress} keeps the compressed trace in an array stack
   with prefix-sum window filters; {!Reference.Compress} is the original
   list-based compressor.  Both are fed the same per-rank event streams
   (fresh copies each, since compression absorbs events into one another)
   and must produce the same trace, compared as {!Tnode.pp} text.  The
   streams come from every registry app at 8 and 64 ranks and from random
   [Check.Gen] programs; the merged traces are re-compressed as lists.
   The merge's copy-on-insert contract is checked here too: [finish]
   twice gives the same trace and leaves the per-rank traces as they
   were. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f
let text nodes = Format.asprintf "%a" Tnode.pp_list nodes

(* Per-rank event streams, time gaps measured as {!Tracer} measures them. *)
let capture ~nranks program =
  let streams = Array.make nranks [] and last = Array.make nranks 0. in
  let hook =
    {
      Mpisim.Hooks.nil with
      on_enter =
        (fun ~world_rank ~time call ->
          match
            Event.of_call ~world_rank ~time_gap:(time -. last.(world_rank)) call
          with
          | Some e -> streams.(world_rank) <- e :: streams.(world_rank)
          | None -> ());
      on_return =
        (fun ~world_rank ~time (call : Mpisim.Call.t) _ ->
          match call.op with
          | Compute _ | Wtime -> ()
          | _ -> last.(world_rank) <- time);
    }
  in
  ignore (Mpisim.Mpi.run ~hooks:[ hook ] ~nranks program);
  Array.map List.rev streams

let both ?window ?foldable ~nranks stream =
  let fresh () = List.map Event.copy stream in
  let r = Reference.Compress.create ?window ?foldable ~nranks () in
  List.iter (Reference.Compress.push r) (fresh ());
  let c = Compress.create ?window ?foldable ~nranks () in
  List.iter (Compress.push c) (fresh ());
  (text (Reference.Compress.contents r), text (Compress.contents c))

let check_streams ?window ?foldable ~what ~nranks streams =
  Array.iteri
    (fun rank stream ->
      let reference, stack = both ?window ?foldable ~nranks stream in
      Alcotest.(check string) (Printf.sprintf "%s, rank %d" what rank) reference stack)
    streams

let app_tests =
  List.concat_map
    (fun (app : Apps.Registry.app) ->
      List.map
        (fun wanted ->
          t (Printf.sprintf "array stack matches list compressor: %s, %d ranks" app.name wanted)
            (fun () ->
              let nranks = Apps.Registry.fit_nranks app ~wanted in
              let program = app.program ~cls:Apps.Params.W () in
              check_streams ~what:app.name ~nranks (capture ~nranks program);
              (* the merge's final pass: compress_list over the merged list *)
              let trace, _ = Tracer.trace_run ~nranks program in
              let nodes = Trace.nodes trace in
              let copies () = List.map Tnode.copy nodes in
              Alcotest.(check string) "compress_list over the merged trace"
                (text (Reference.Compress.compress_list ~nranks (copies ())))
                (text (Compress.compress_list ~nranks (copies ())))))
        [ 8; 64 ])
    Apps.Registry.all

let not_collective (e : Event.t) = not (Event.is_collective e.kind)

let gen_tests =
  [
    t "array stack matches list compressor on 500 Gen seeds" (fun () ->
        for seed = 1 to 500 do
          let prog = Check.Gen.generate ~seed in
          let nranks = prog.Check.Gen.nranks in
          let streams = capture ~nranks (Check.Gen.to_app prog) in
          List.iter
            (fun window ->
              List.iter
                (fun (fname, foldable) ->
                  check_streams ~window ?foldable ~nranks streams
                    ~what:(Printf.sprintf "seed %d, window %d, %s" seed window fname))
                [ ("all foldable", None); ("p2p only", Some not_collective) ])
            [ 1; 2; 64 ]
        done);
  ]

let finish_tests =
  List.map
    (fun name ->
      t (Printf.sprintf "finish is repeatable and leaves local traces alone: %s" name)
        (fun () ->
          let app = Option.get (Apps.Registry.find name) in
          let nranks = Apps.Registry.fit_nranks app ~wanted:16 in
          let tr = Tracer.create ~nranks () in
          ignore
            (Mpisim.Mpi.run ~hooks:[ Tracer.hook tr ] ~nranks
               (app.program ~cls:Apps.Params.S ()));
          let locals () = Array.map text (Tracer.local_traces tr) in
          let before = locals () in
          let first = Trace.to_text (Tracer.finish tr) in
          let second = Trace.to_text (Tracer.finish tr) in
          Alcotest.(check string) "same merged trace" first second;
          Alcotest.(check (array string)) "local traces unchanged" before (locals ())))
    [ "mg"; "lu"; "hirsd"; "laghos" ]

let suite = app_tests @ gen_tests @ finish_tests
