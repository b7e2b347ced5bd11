(* Differential tests for the indexed inter-rank merge and the indexed
   collective-alignment bookkeeping.

   The hash index inside {!Scalatrace.Merge} is a pure lookup structure:
   for every application the merged trace must be byte-identical to what
   the linear-scan oracle {!Reference.Merge} produces, and per-rank
   projections must still equal the per-rank input streams.  The
   alignment side gets a wide-communicator exercise (the O(1) arrival
   bookkeeping) and unit tests for the overflow-safe rounded byte mean. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f

(* Trace once, merge twice: [finish] leaves per-rank traces untouched, so
   the oracle merges the same [local_traces]. *)
let finish_both tr =
  let indexed = Tracer.finish tr in
  let reference =
    Reference.Merge.merge ~nranks:(Trace.nranks indexed)
      ~comms:(Trace.comms indexed) (Tracer.local_traces tr)
  in
  (reference, indexed)

let check_identical ~nranks locals reference indexed =
  Alcotest.(check string)
    "identical trace bytes"
    (Trace.to_text reference) (Trace.to_text indexed);
  for r = 0 to nranks - 1 do
    Alcotest.(check int)
      (Printf.sprintf "projection of rank %d preserves its event count" r)
      (Tnode.event_count locals.(r))
      (Tnode.event_count_for (Trace.project indexed ~rank:r) ~rank:r)
  done

let registry_tests =
  List.map
    (fun (app : Apps.Registry.app) ->
      t (Printf.sprintf "indexed merge matches reference: %s" app.name)
        (fun () ->
          let nranks = Apps.Registry.fit_nranks app ~wanted:8 in
          let tr = Tracer.create ~nranks () in
          ignore
            (Mpisim.Mpi.run ~hooks:[ Tracer.hook tr ] ~nranks
               (app.program ~cls:Apps.Params.S ()));
          let reference, indexed = finish_both tr in
          check_identical ~nranks (Tracer.local_traces tr) reference indexed))
    Apps.Registry.all

(* Random SPMD programs through both merges — the same generator the
   fuzzing subsystem draws from, so the phase vocabulary covers skewed
   collectives, fan-ins, and sub-communicators. *)
let gen_props =
  List.map
    (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260808 |]))
    [
      QCheck.Test.make
        ~name:"indexed merge matches reference on random programs" ~count:40
        QCheck.(int_range 0 1_000_000)
        (fun seed ->
          let prog = Check.Gen.generate ~seed in
          let nranks = prog.Check.Gen.nranks in
          let tr = Tracer.create ~nranks () in
          ignore
            (Mpisim.Mpi.run ~hooks:[ Tracer.hook tr ] ~nranks
               (Check.Gen.to_app prog));
          let reference, indexed = finish_both tr in
          Trace.to_text reference = Trace.to_text indexed);
    ]

(* -------------------------------------------------------------- *)
(* Alignment: wide communicators and the collective byte mean       *)

let site_x = Util.Callsite.synthetic "x"
let site_y = Util.Callsite.synthetic "y"

let coll_leaf ?(site = site_x) ?(kind = Event.E_allreduce) ?(comm = 0) ?parts
    ~bytes ranks =
  let h = Util.Histogram.create () in
  Util.Histogram.add h 0.;
  Tnode.Leaf
    {
      Event.site;
      kind;
      peer = Event.P_none;
      bytes;
      vec = None;
      tag = 0;
      comm;
      parts;
      dtime = h;
      ranks = Util.Rank_set.of_list ranks;
      hcache = 0;
    }

let aligned_coll_bytes trace =
  let aligned = Benchgen.Align.run trace in
  let bytes = ref None in
  Tnode.iter_leaves
    (fun e -> if e.Event.kind = Event.E_allreduce then bytes := Some e.Event.bytes)
    (Trace.nodes aligned);
  Option.get !bytes

let align_tests =
  [
    t "alignment completes on a wide skewed communicator" (fun () ->
        (* 512 ranks reach the same barrier from two call sites: Algorithm
           1 must hoist it to one RSD, and the arrival bookkeeping must
           stay sublinear in the member count while doing so *)
        let nranks = 512 in
        let sf = Util.Callsite.synthetic "fin" in
        let prog (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank mod 2 = 0 then Mpisim.Mpi.barrier ~site:site_x ctx
          else Mpisim.Mpi.barrier ~site:site_y ctx;
          Mpisim.Mpi.allreduce ~site:site_x ctx ~bytes:8;
          Mpisim.Mpi.finalize ~site:sf ctx
        in
        let trace, _ = Tracer.trace_run ~nranks prog in
        Alcotest.(check bool)
          "skew detected" true
          (Trace.has_unaligned_collectives trace);
        let aligned = Benchgen.Align.run trace in
        Alcotest.(check bool)
          "aligned" false
          (Trace.has_unaligned_collectives aligned);
        Alcotest.(check int)
          "events preserved" (Trace.event_count trace)
          (Trace.event_count aligned));
    t "collective byte mean is overflow-safe" (fun () ->
        (* three ranks disagree on the allreduce size near max_int: the
           naive sum-then-divide would wrap negative *)
        let b = max_int - 1 and c = max_int - 7 in
        let trace =
          Trace.make ~nranks:3
            ~comms:[ (0, Util.Rank_set.all 3) ]
            ~nodes:[ coll_leaf ~bytes:b [ 0; 1 ]; coll_leaf ~bytes:c [ 2 ] ]
        in
        Alcotest.(check int)
          "exact mean" (max_int - 3)
          (aligned_coll_bytes trace));
    t "collective byte mean rounds half-up" (fun () ->
        let trace =
          Trace.make ~nranks:2
            ~comms:[ (0, Util.Rank_set.all 2) ]
            ~nodes:[ coll_leaf ~bytes:1 [ 0 ]; coll_leaf ~bytes:2 [ 1 ] ]
        in
        Alcotest.(check int) "mean of 1,2" 2 (aligned_coll_bytes trace);
        let trace3 =
          Trace.make ~nranks:3
            ~comms:[ (0, Util.Rank_set.all 3) ]
            ~nodes:[ coll_leaf ~bytes:1 [ 0; 1 ]; coll_leaf ~bytes:2 [ 2 ] ]
        in
        Alcotest.(check int) "mean of 1,1,2" 1 (aligned_coll_bytes trace3));
    t "non-member arrival raises a typed error" (fun () ->
        (* rank 2 reaches a collective on a communicator it is not part
           of: a malformed trace must fail with Align_error, not an
           assertion or a traversal-budget blowup *)
        let trace =
          Trace.make ~nranks:4
            ~comms:
              [ (0, Util.Rank_set.all 4); (1, Util.Rank_set.of_list [ 0; 1 ]) ]
            ~nodes:[ coll_leaf ~comm:1 ~bytes:8 [ 0; 1; 2 ] ]
        in
        match Benchgen.Align.run trace with
        | _ -> Alcotest.fail "expected Align_error"
        | exception Benchgen.Align.Align_error _ -> ());
    t "wildcard traversal rejects a non-member collective arrival"
      (fun () ->
        (* the same malformed trace as above, handed straight to
           Algorithm 2: its traversal shares Align's collective tracker,
           so the outsider is a typed error, not a miscounted arrival *)
        let trace =
          Trace.make ~nranks:4
            ~comms:
              [ (0, Util.Rank_set.all 4); (1, Util.Rank_set.of_list [ 0; 1 ]) ]
            ~nodes:[ coll_leaf ~comm:1 ~bytes:8 [ 0; 1; 2 ] ]
        in
        match Benchgen.Wildcard.run ~strategy:`Traversal trace with
        | _ -> Alcotest.fail "expected Wildcard_error"
        | exception Benchgen.Wildcard.Wildcard_error _ -> ());
    t "neighborhood arrival outside the declared participant set" (fun () ->
        (* rank 1 reaches a partial-participant neighborhood collective
           whose declared set is {0, 2}: the arrival must raise the typed
           Align_error naming the participant set, not stall or
           mis-account the arrival bitmap *)
        let parts = [| 0; 2 |] in
        let trace =
          Trace.make ~nranks:4
            ~comms:[ (0, Util.Rank_set.all 4) ]
            ~nodes:
              [
                coll_leaf ~kind:Event.E_neighbor_alltoall ~parts ~bytes:64
                  [ 0; 1; 2 ];
              ]
        in
        match Benchgen.Align.run trace with
        | _ -> Alcotest.fail "expected Align_error"
        | exception Benchgen.Align.Align_error msg ->
            Alcotest.(check bool)
              "message names the participant set" true
              (let has needle =
                 let nl = String.length needle and ml = String.length msg in
                 let rec go i =
                   i + nl <= ml && (String.sub msg i nl = needle || go (i + 1))
                 in
                 go 0
               in
               has "participant set" && has "{0,2}"));
  ]

let suite = registry_tests @ gen_props @ align_tests
