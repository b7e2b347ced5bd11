(* Comparing data decompositions without porting anything (paper Sec 1:
 * "examine the impact of alternative application implementations such as
 * different data decompositions (causing different communication
 * patterns)").
 *
 *   dune exec examples/decomposition_study.exe
 *
 * The same logical halo-exchange workload can be decomposed as a 1-D ring
 * (2 neighbours, long boundaries) or a 2-D grid (4 neighbours, short
 * boundaries).  We generate a benchmark from each variant and run both on
 * two candidate machines — four results, zero application ports. *)

module P = Benchgen.Pipeline

let () =
  let nranks = 16 in
  let study name =
    let app = Option.get (Apps.Registry.find name) in
    match
      P.run
        { P.default with name = Some name }
        (P.From_app { nranks; app = app.program ~cls:Apps.Params.A () })
    with
    | Ok (artifact, _) -> artifact.P.report
    | Error e -> failwith (P.error_to_string e)
  in
  let ring = study "ring" and stencil = study "stencil2d" in
  Printf.printf
    "generated benchmarks: ring (%d statements), stencil2d (%d statements)\n\n"
    ring.statements stencil.statements;
  Printf.printf "%-12s %-22s %-22s\n" "" "1-D ring decomposition" "2-D grid decomposition";
  List.iter
    (fun (mname, net) ->
      let run (r : P.report) =
        (Conceptual.Lower.run ~net ~nranks r.program).outcome.elapsed
      in
      Printf.printf "%-12s %-22s %-22s\n" mname
        (Util.Table.fsec (run ring))
        (Util.Table.fsec (run stencil)))
    [ ("BG/L-like", Mpisim.Netmodel.bluegene_l);
      ("Ethernet", Mpisim.Netmodel.ethernet_cluster) ];
  print_endline
    "\nThe 2-D decomposition moves the same volume in four messages that are\n\
     a quarter the size, so its advantage shrinks as latency grows (the\n\
     Ethernet column closes much of the gap the torus shows) — exactly the\n\
     decomposition trade-off the paper proposes exploring on generated\n\
     benchmarks before touching the application."
