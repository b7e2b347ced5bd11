(* Pins the simulator's virtual-time results: for every registry app at 8
   ranks (class S), under the monolithic collective model and under
   [`Auto] (schedule and neighborhood strategies), print the outcome of
   the tracing run, of replaying its resolved trace, and of the two
   validation runs.  [elapsed] is printed in hexadecimal float notation,
   so the comparison against the committed golden is exact.

   Usage: engine_outcomes.exe > engine_outcomes.txt *)

open Benchgen

let show (o : Mpisim.Engine.outcome) =
  Printf.sprintf "%h/%d/%d/%d/%d/%d" o.elapsed o.events o.messages o.p2p_bytes
    o.unexpected o.flow_stalls

let line coll_alg (app : Apps.Registry.app) =
  let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
  let program = app.program ~cls:Apps.Params.S () in
  let config = { Pipeline.default with coll_alg } in
  match Pipeline.run config (Pipeline.From_app { nranks; app = program }) with
  | Error e -> Printf.sprintf "error %s" (Pipeline.error_to_string e)
  | Ok (art, _) ->
      let traced =
        match art.trace_outcome with Some o -> show o | None -> "-"
      in
      let replayed =
        (Replay.run ~coll_alg art.resolved_trace).Replay.outcome
      in
      let fid = Pipeline.validate config ~nranks program art in
      Printf.sprintf "trace=%s replay=%s original=%s generated=%s" traced
        (show replayed) (show fid.f_original) (show fid.f_generated)

let () =
  List.iter
    (fun (label, coll_alg) ->
      List.iter
        (fun (app : Apps.Registry.app) ->
          Printf.printf "%s %s n=%d %s\n" label app.name
            (Apps.Registry.fit_nranks app ~wanted:8)
            (line coll_alg app))
        Apps.Registry.all)
    [ ("monolithic", `Monolithic); ("auto", `Auto) ]
