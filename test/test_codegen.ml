open Scalatrace
module A = Conceptual.Ast

let t name f = Alcotest.test_case name `Quick f

module Pipeline = Benchgen.Pipeline

(* The generated report for [trace] under the default configuration. *)
let report_of ?name trace =
  match Pipeline.run { Pipeline.default with name } (Pipeline.From_trace trace) with
  | Ok (a, _) -> a.Pipeline.report
  | Error e -> Alcotest.fail (Pipeline.error_to_string e)

let site = Util.Callsite.synthetic "s"

let mk ?(kind = Event.E_send) ?(peer = Event.P_abs 1) ?(bytes = 64) ?(tag = 0)
    ?(ranks = Util.Rank_set.singleton 0) ?(dt = 0.) () =
  let h = Util.Histogram.create () in
  Util.Histogram.add h dt;
  { Event.site; kind; peer; bytes; vec = None; tag; comm = 0; parts = None; dtime = h; ranks;
    hcache = 0 }

let trace_of nodes =
  Trace.make ~nranks:8 ~comms:[ (0, Util.Rank_set.all 8) ] ~nodes

(* ---------------------------------------------------------------- *)
(* Traversal cursors                                                  *)

let cursor_tests =
  [
    t "cursor yields leaves in order" (fun () ->
        let e1 = mk ~bytes:1 () and e2 = mk ~bytes:2 () in
        let c = Benchgen.Traversal.start [ Tnode.Leaf e1; Tnode.Leaf e2 ] in
        (match Benchgen.Traversal.peek c with
        | Some (e, c2) -> (
            Alcotest.(check int) "first" 1 e.Event.bytes;
            match Benchgen.Traversal.peek c2 with
            | Some (e, c3) ->
                Alcotest.(check int) "second" 2 e.Event.bytes;
                Alcotest.(check bool) "end" true (Benchgen.Traversal.peek c3 = None)
            | None -> Alcotest.fail "missing second")
        | None -> Alcotest.fail "missing first"));
    t "cursor expands loops lazily" (fun () ->
        let e = mk () in
        let c =
          Benchgen.Traversal.start
            [ Tnode.loop ~count:3 [ Tnode.Leaf e ] ]
        in
        let rec count c n =
          match Benchgen.Traversal.peek c with
          | None -> n
          | Some (e', c') ->
              Alcotest.(check bool) "physical identity" true (e' == e);
              count c' (n + 1)
        in
        Alcotest.(check int) "3 instances" 3 (count c 0));
    t "cursor handles nested loops" (fun () ->
        let e = mk () in
        let inner = Tnode.loop ~count:4 [ Tnode.Leaf e ] in
        let c = Benchgen.Traversal.start [ Tnode.loop ~count:5 [ inner ] ] in
        let rec count c n =
          match Benchgen.Traversal.peek c with None -> n | Some (_, c') -> count c' (n + 1)
        in
        Alcotest.(check int) "20 instances" 20 (count c 0));
    t "consumed counts instances" (fun () ->
        let c =
          Benchgen.Traversal.start [ Tnode.loop ~count:2 [ Tnode.Leaf (mk ()) ] ]
        in
        match Benchgen.Traversal.peek c with
        | Some (_, c2) ->
            Alcotest.(check int) "one" 1 (Benchgen.Traversal.consumed c2)
        | None -> Alcotest.fail "peek");
    t "zero-count loop is skipped" (fun () ->
        let c =
          Benchgen.Traversal.start [ Tnode.loop ~count:0 [ Tnode.Leaf (mk ()) ] ]
        in
        Alcotest.(check bool) "empty" true (Benchgen.Traversal.peek c = None));
  ]

(* ---------------------------------------------------------------- *)
(* Code generation: peer grouping, statement shapes                   *)

let stmt_of_trace trace =
  let report = report_of trace in
  (* strip the reset/log wrapper *)
  match report.program.A.body with
  | A.Reset _ :: rest -> List.filter (function A.Log _ -> false | _ -> true) rest
  | body -> body

let codegen_tests =
  [
    t "relative peers become modular task expressions" (fun () ->
        let e = mk ~kind:Event.E_isend ~peer:(Event.P_rel 1) ~ranks:(Util.Rank_set.all 8) () in
        let fin = mk ~kind:Event.E_finalize ~peer:Event.P_none ~ranks:(Util.Rank_set.all 8) () in
        match stmt_of_trace (trace_of [ Tnode.Leaf e; Tnode.Leaf fin ]) with
        | [ A.Send { src = A.All (Some v); dst; async = true; _ } ] ->
            Alcotest.(check int) "dst for rank 5" 6
              (A.eval_int [ (v, 5) ] dst);
            Alcotest.(check int) "wraps" 0 (A.eval_int [ (v, 7) ] dst)
        | _ -> Alcotest.fail "unexpected statements");
    t "negative offsets print as t - d" (fun () ->
        let e = mk ~kind:Event.E_recv ~peer:(Event.P_rel 7) ~ranks:(Util.Rank_set.all 8) () in
        let fin = mk ~kind:Event.E_finalize ~peer:Event.P_none ~ranks:(Util.Rank_set.all 8) () in
        let report = report_of (trace_of [ Tnode.Leaf e; Tnode.Leaf fin ])
        in
        Alcotest.(check bool) "uses t - 1" true
          (let needle = "(t - 1) MOD 8" in
           let hay = report.text in
           let n = String.length needle and m = String.length hay in
           let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
           go 0));
    t "P_map splits into offset groups" (fun () ->
        (* ranks 0,1 send +1; ranks 4,5 send -1: two statements *)
        let e =
          mk ~kind:Event.E_send
            ~peer:(Event.P_map [ (0, 1); (1, 2); (4, 3); (5, 4) ])
            ~ranks:(Util.Rank_set.of_list [ 0; 1; 4; 5 ])
            ()
        in
        let fin = mk ~kind:Event.E_finalize ~peer:Event.P_none ~ranks:(Util.Rank_set.all 8) () in
        let sends =
          List.filter (function A.Send _ -> true | _ -> false)
            (stmt_of_trace (trace_of [ Tnode.Leaf e; Tnode.Leaf fin ]))
        in
        Alcotest.(check int) "two groups" 2 (List.length sends));
    t "collective over subcommunicator uses group task set" (fun () ->
        let members = Util.Rank_set.of_list [ 0; 2; 4; 6 ] in
        let e =
          mk ~kind:Event.E_allreduce ~peer:Event.P_none ~bytes:32 ~ranks:members ()
        in
        let e = { e with Event.comm = 1 } in
        let fin = mk ~kind:Event.E_finalize ~peer:Event.P_none ~ranks:(Util.Rank_set.all 8) () in
        let trace =
          Trace.make ~nranks:8
            ~comms:[ (0, Util.Rank_set.all 8); (1, members) ]
            ~nodes:[ Tnode.Leaf e; Tnode.Leaf fin ]
        in
        match stmt_of_trace trace with
        | [ A.Reduce { src = A.Group _ as g; dst = A.Group _; _ } ] ->
            Alcotest.(check (list int)) "members" [ 0; 2; 4; 6 ]
              (A.members g [] ~nranks:8)
        | _ -> Alcotest.fail "expected group reduce");
    t "unresolved wildcard is rejected" (fun () ->
        let e = mk ~kind:Event.E_recv ~peer:Event.P_any ~ranks:(Util.Rank_set.singleton 0) () in
        (* bypass the pipeline's wildcard pass by calling codegen directly *)
        Alcotest.(check bool) "raises" true
          (try
             ignore (Benchgen.Codegen.program (trace_of [ Tnode.Leaf e ]));
             false
           with Benchgen.Codegen.Codegen_error _ -> true));
    t "compute statements carry the mean gap" (fun () ->
        let e =
          mk ~kind:Event.E_barrier ~peer:Event.P_none ~ranks:(Util.Rank_set.all 8) ~dt:0.002 ()
        in
        let fin = mk ~kind:Event.E_finalize ~peer:Event.P_none ~ranks:(Util.Rank_set.all 8) () in
        let stmts = stmt_of_trace (trace_of [ Tnode.Leaf e; Tnode.Leaf fin ]) in
        match stmts with
        | [ A.Compute { usecs = A.Float us; _ }; A.Sync _ ] ->
            Alcotest.(check (float 0.5)) "2000us" 2000. us
        | _ -> Alcotest.fail "expected compute then sync");
    t "reduce_scatter expands to one reduce per member" (fun () ->
        let members = Util.Rank_set.all 4 in
        let e =
          {
            (mk ~kind:Event.E_reduce_scatter ~peer:Event.P_none ~bytes:100 ~ranks:members ())
            with
            Event.vec = Some [| 10; 20; 30; 40 |];
          }
        in
        let fin = mk ~kind:Event.E_finalize ~peer:Event.P_none ~ranks:members () in
        let trace =
          Trace.make ~nranks:4 ~comms:[ (0, members) ]
            ~nodes:[ Tnode.Leaf e; Tnode.Leaf fin ]
        in
        let reduces =
          List.filter (function A.Reduce _ -> true | _ -> false) (stmt_of_trace trace)
        in
        Alcotest.(check int) "4 reduces" 4 (List.length reduces));
  ]

(* ---------------------------------------------------------------- *)
(* Network model                                                      *)

let netmodel_tests =
  let open Mpisim in
  [
    t "transfer time is affine in size" (fun () ->
        let n = Netmodel.bluegene_l in
        let t0 = Netmodel.transfer_time n ~bytes:0 in
        let t1 = Netmodel.transfer_time n ~bytes:1000 in
        let t2 = Netmodel.transfer_time n ~bytes:2000 in
        Alcotest.(check (float 1e-12)) "affine" (t1 -. t0) (t2 -. t1);
        Alcotest.(check (float 1e-12)) "latency" n.latency t0);
    t "eager threshold boundary" (fun () ->
        let n = Netmodel.bluegene_l in
        Alcotest.(check bool) "at" true (Netmodel.is_eager n ~bytes:n.eager_threshold);
        Alcotest.(check bool) "above" false
          (Netmodel.is_eager n ~bytes:(n.eager_threshold + 1)));
    t "collective costs grow with participants" (fun () ->
        let n = Netmodel.ethernet_cluster in
        Alcotest.(check bool) "barrier" true
          (Netmodel.barrier_cost n ~p:64 > Netmodel.barrier_cost n ~p:4);
        Alcotest.(check bool) "bcast" true
          (Netmodel.bcast_cost n ~p:64 ~bytes:1024 > Netmodel.bcast_cost n ~p:4 ~bytes:1024);
        Alcotest.(check bool) "alltoall" true
          (Netmodel.alltoall_cost n ~p:64 ~total:4096
          > Netmodel.alltoall_cost n ~p:8 ~total:4096));
    t "collective costs grow with size" (fun () ->
        let n = Netmodel.bluegene_l in
        Alcotest.(check bool) "bcast" true
          (Netmodel.bcast_cost n ~p:8 ~bytes:(1 lsl 20)
          > Netmodel.bcast_cost n ~p:8 ~bytes:8));
    t "allreduce costs about two bcasts" (fun () ->
        let n = Netmodel.bluegene_l in
        let b = Netmodel.bcast_cost n ~p:16 ~bytes:1024 -. n.collective_dispatch in
        let a = Netmodel.allreduce_cost n ~p:16 ~bytes:1024 -. n.collective_dispatch in
        Alcotest.(check (float 1e-9)) "2x" (2. *. b) a);
  ]

let suite = cursor_tests @ codegen_tests @ netmodel_tests
