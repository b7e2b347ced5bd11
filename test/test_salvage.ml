(* The resilient-ingestion layer: framed round trips, the golden frame
   layout, the salvage loader, degraded-mode generation, and the
   corruption-fuzz contract. *)

open Scalatrace

let t name f = Alcotest.test_case name `Quick f

(* Structural signature: per-rank event sequences plus shape counters. *)
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
  && Trace.event_count a = Trace.event_count b
  && List.for_all
       (fun r -> seq_sig a r = seq_sig b r)
       (List.init (Trace.nranks a) Fun.id)

let app_trace ?(nranks = 8) name =
  let app = Option.get (Apps.Registry.find name) in
  let nranks = Apps.Registry.fit_nranks app ~wanted:nranks in
  let trace, _ =
    Tracer.trace_run ~nranks (app.program ~cls:Apps.Params.S ())
  in
  trace

(* Round trip for one registry app: the framed bytes must reload to a
   structurally identical trace, and re-saving must be byte-stable.  (The
   test names predate format v3.) *)
let framed_roundtrip name =
  t (name ^ " framed (v2) round trip is byte-stable") (fun () ->
      let trace = app_trace name in
      let bytes = Trace_io.to_framed trace in
      let trace' = Trace_io.of_string bytes in
      Alcotest.(check bool) "round-trip" true (roundtrip_equal trace trace');
      Alcotest.(check string) "byte-stable" bytes (Trace_io.to_framed trace'))

let all_app_names =
  List.map (fun (a : Apps.Registry.app) -> a.name) Apps.Registry.all

(* ------------------------------------------------------------------ *)
(* Damage helpers                                                       *)

let frame_boundaries bytes =
  let n = String.length bytes in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let acc =
        if
          n - pos >= 6
          && String.sub bytes pos 6 = "frame "
          && (pos = 0 || bytes.[pos - 1] = '\n')
        then pos :: acc
        else acc
      in
      match String.index_from_opt bytes pos '\n' with
      | Some nl -> go (nl + 1) acc
      | None -> List.rev acc
  in
  go 0 []

(* [(start, stop)] of the [kind] frame: its header line through the next
   boundary. *)
let frame_span bytes ~kind =
  let bs = frame_boundaries bytes in
  let prefix = Printf.sprintf "frame %s " kind in
  let start =
    List.find
      (fun pos ->
        String.length bytes - pos > String.length prefix
        && String.sub bytes pos (String.length prefix) = prefix)
      bs
  in
  let stop =
    match List.find_opt (fun b -> b > start) bs with
    | Some b -> b
    | None -> String.length bytes
  in
  (start, stop)

(* Drop one whole chunk frame. *)
let ablate_chunk bytes ~chunk =
  let start, stop = frame_span bytes ~kind:(Printf.sprintf "chunk:%d" chunk) in
  String.sub bytes 0 start
  ^ String.sub bytes stop (String.length bytes - stop)

let with_temp_file bytes f =
  let path = Filename.temp_file "salvage" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      f path)

let frame kind payload =
  Trace_io.frame_header ~kind ~payload ^ "\n" ^ payload ^ "\n"

(* [bytes] with the [kind] frame's payload rewritten by [f] under a
   recomputed checksum: damage no CRC can see. *)
let edit_frame bytes ~kind f =
  let start, stop = frame_span bytes ~kind in
  let nl = String.index_from bytes start '\n' in
  let payload = String.sub bytes (nl + 1) (stop - nl - 2) in
  String.sub bytes 0 start ^ frame kind (f payload)
  ^ String.sub bytes stop (String.length bytes - stop)

(* [trace]'s framed bytes with the header frame payload replaced by
   [payload]. *)
let with_header trace payload =
  edit_frame (Trace_io.to_framed trace) ~kind:"header" (fun old ->
      Alcotest.(check string) "header frame"
        (Printf.sprintf "nranks %d" (Trace.nranks trace)) old;
      payload)

let replace_first s ~before ~after =
  let n = String.length before in
  let rec at i = if String.sub s i n = before then i else at (i + 1) in
  let i = at 0 in
  String.sub s 0 i ^ after ^ String.sub s (i + n) (String.length s - i - n)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let run_pipeline ~recovery path =
  Benchgen.Pipeline.run
    { Benchgen.Pipeline.default with recovery }
    (Benchgen.Pipeline.From_file path)

(* Damage no checksum can see ({!Check.Corrupt.crafted}), on a 4-rank
   ring trace: strict loading must raise the reader's first damage, the
   reader must call the file degraded, and salvage mode must still
   generate, with the damage reported as [W_salvaged]. *)
let ring4 = lazy (app_trace "ring" ~nranks:4)

let checksum_valid_damage mutation ~expect =
  t ("checksum-valid damage: " ^ mutation) (fun () ->
      let trace = Lazy.force ring4 in
      let expect = expect trace in
      let damaged =
        List.assoc mutation (Check.Corrupt.crafted (Trace_io.to_framed trace))
      in
      (match Trace_io.of_string damaged with
      | _ -> Alcotest.fail "strict load accepted the damage"
      | exception Trace_io.Format_error msg ->
          Alcotest.(check string) "first damage" expect msg);
      (match Trace_io.read damaged with
      | Error e -> Alcotest.fail e.reason
      | Ok (_, report) ->
          Alcotest.(check bool) "degraded" true (Trace_io.is_degraded report);
          Alcotest.(check string) "damage list leads with it" expect
            (List.hd report.damage));
      with_temp_file damaged (fun path ->
          match run_pipeline ~recovery:`Salvage path with
          | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
          | Ok (_, warnings) ->
              Alcotest.(check bool)
                "W_salvaged" true
                (List.exists
                   (function Benchgen.Pipeline.W_salvaged _ -> true | _ -> false)
                   warnings)))

let checksum_valid_tests =
  [
    checksum_valid_damage "bad-separator" ~expect:(fun _ ->
        "line 2: frame header: missing separator");
    checksum_valid_damage "extra-chunk-frame" ~expect:(fun trace ->
        let chunks =
          List.length
            (List.filter
               (String.starts_with ~prefix:"frame chunk:")
               (String.split_on_char '\n' (Trace_io.to_framed trace)))
        in
        Printf.sprintf
          "line 1: timing frame declares %d chunks but the file has chunk %d"
          chunks chunks);
    checksum_valid_damage "manifest-total" ~expect:(fun trace ->
        let n = Trace.event_count trace in
        Printf.sprintf
          "line 1: event-count manifest mismatch (%d recorded, %d loaded)"
          (n + 1) n);
    checksum_valid_damage "undeclared-comm" ~expect:(fun _ ->
        "line 1: event on undeclared communicator 1");
  ]

(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    t "golden v3 frame layout" (fun () ->
        (* Byte-level compatibility contract: magic line; a header frame
           whose payload is "nranks 2" with its IEEE CRC32; the
           communicator table; the merged trace in one chunk, rank sets
           and all; and the manifest with its interval-coded per-rank
           counts. *)
        let prog (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank = 0 then Mpisim.Mpi.send ctx ~dst:1 ~bytes:64 ~tag:1
          else
            ignore
              (Mpisim.Mpi.recv ctx ~src:(Mpisim.Call.Rank 0)
                 ~tag:(Mpisim.Call.Tag 1) ~bytes:64);
          Mpisim.Mpi.finalize ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:2 prog in
        let site = "site=\"<unknown>\" 0 0 \"\"" in
        Alcotest.(check string)
          "file"
          ("scalatrace-frames 3\n"
          ^ "frame header 8 d9dd6a18\n" ^ "nranks 2\n"
          ^ "frame comms 12 57d0c0cf\n" ^ "comm 0 0:1:1\n"
          ^ "frame chunk:0 310 e60b7211\n"
          ^ "event MPI_Recv peer=abs:0 bytes=64 vec=- tag=1 comm=0 ranks=1:1:1 dt=1;0;0;0;0 "
          ^ site ^ "\n"
          ^ "event MPI_Send peer=abs:1 bytes=64 vec=- tag=1 comm=0 ranks=0:0:1 dt=1;0;0;0;0 "
          ^ site ^ "\n"
          ^ "event MPI_Finalize peer=none bytes=0 vec=- tag=0 comm=0 ranks=0:1:1 dt=2;0;0;0;0 "
          ^ site ^ "\n"
          ^ "frame timing 31 057f8d1e\n" ^ "events 4\nchunks 1\ncount 2 0:1:1\n"
          ^ "frame end 0 00000000\n")
          (Trace_io.to_framed trace);
        Alcotest.(check string)
          "frame_header helper" "frame header 8 d9dd6a18"
          (Trace_io.frame_header ~kind:"header" ~payload:"nranks 2"));
    t "crc32 matches the IEEE reference" (fun () ->
        (* "123456789" -> cbf43926 is the standard CRC-32 check value. *)
        Alcotest.(check string)
          "check value" "cbf43926"
          (Util.Crc32.to_hex (Util.Crc32.string "123456789")));
    t "salvage of an intact file is a clean report" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        match Trace_io.read (Trace_io.to_framed trace) with
        | Error e -> Alcotest.fail e.reason
        | Ok (trace', report) ->
            Alcotest.(check bool) "equal" true (roundtrip_equal trace trace');
            Alcotest.(check bool)
              "not degraded" false
              (Trace_io.is_degraded report));
    t "salvage recovers the prefix before an ablated chunk" (fun () ->
        (* cg's chunks: a broadcast and the odd ranks' exchange loop, the
           even ranks' loop, then the closing collectives *)
        let trace = app_trace "cg" ~nranks:8 in
        let damaged = ablate_chunk (Trace_io.to_framed trace) ~chunk:1 in
        match Trace_io.read damaged with
        | Error e -> Alcotest.fail e.reason
        | Ok (trace', report) ->
            Alcotest.(check bool) "degraded" true (Trace_io.is_degraded report);
            Alcotest.(check int) "nranks kept" 8 (Trace.nranks trace');
            let kept = List.length (Trace.nodes trace') in
            Alcotest.(check bool)
              "a prefix of the merged trace" true
              (kept > 0
              && List.for_all2 Tnode.equiv_ranks (Trace.nodes trace')
                   (List.filteri (fun i _ -> i < kept) (Trace.nodes trace)));
            Alcotest.(check (option int))
              "losses from the manifest"
              (Some (Trace.event_count trace - Trace.event_count trace'))
              (Trace_io.events_lost report);
            Alcotest.(check int) "no rank lost entirely" 0 report.ranks_missing;
            List.iter
              (fun (rr : Trace_io.rank_recovery) ->
                Util.Rank_set.iter
                  (fun r ->
                    Alcotest.(check int)
                      (Printf.sprintf "rank %d recovered" r)
                      (Tnode.event_count_for (Trace.nodes trace') ~rank:r)
                      rr.rr_events)
                  rr.rr_ranks)
              report.per_rank);
    t "an unclosed loop in a valid chunk keeps the chunk's well-formed prefix"
      (fun () ->
        let trace = app_trace "cg" ~nranks:8 in
        let damaged =
          edit_frame (Trace_io.to_framed trace) ~kind:"chunk:0" (fun p ->
              String.sub p 0 (String.rindex p '\n'))
        in
        match Trace_io.read damaged with
        | Error e -> Alcotest.fail e.reason
        | Ok (trace', report) ->
            Alcotest.(check string)
              "first damage" "line 7: unterminated loop at end of input"
              (List.hd report.damage);
            Alcotest.(check int) "the broadcast alone" 1
              (List.length (Trace.nodes trace'));
            Alcotest.(check (option int))
              "every other event lost"
              (Some (Trace.event_count trace - 8))
              (Trace_io.events_lost report));
    t "a per-rank manifest edit that keeps the total is damage" (fun () ->
        (* cg's 8 ranks all record 43 events; move one event from ranks
           0-3 to ranks 4-7 (checksum recomputed) *)
        let trace = app_trace "cg" ~nranks:8 in
        let damaged =
          edit_frame (Trace_io.to_framed trace) ~kind:"timing"
            (replace_first ~before:"count 43 0:7:1"
               ~after:"count 42 0:3:1\ncount 44 4:7:1")
        in
        match Trace_io.read damaged with
        | Error e -> Alcotest.fail e.reason
        | Ok (_, report) ->
            Alcotest.(check (list string))
              "both groups named"
              [
                "line 1: ranks {0-3} event-count manifest mismatch (42 \
                 recorded, 43 loaded)";
                "line 1: ranks {4-7} event-count manifest mismatch (44 \
                 recorded, 43 loaded)";
              ]
              report.damage);
    t "strict load rejects a header rank count the frames do not back"
      (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        let crafted = with_header trace "nranks 100000000000" in
        (match Trace_io.of_string crafted with
        | _ -> Alcotest.fail "strict loader accepted nranks 100000000000"
        | exception Trace_io.Format_error _ -> ());
        with_temp_file crafted (fun path ->
            match run_pipeline ~recovery:`Strict path with
            | Error (Benchgen.Pipeline.E_trace_format _) -> ()
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok _ -> Alcotest.fail "strict mode accepted the header"));
    t "salvage treats an implausible header rank count as damage" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        let crafted = with_header trace "nranks 100000000000" in
        (match Trace_io.read crafted with
        | Error e -> Alcotest.fail e.reason
        | Ok (trace', report) ->
            Alcotest.(check bool) "degraded" true (Trace_io.is_degraded report);
            Alcotest.(check int) "nranks from the manifest" 4
              (Trace.nranks trace');
            Alcotest.(check bool) "streams intact" true
              (roundtrip_equal trace trace'));
        with_temp_file crafted (fun path ->
            List.iter
              (fun recovery ->
                match run_pipeline ~recovery path with
                | Ok _ -> ()
                | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e))
              [ `Salvage; `Best_effort ]));
    t "salvage refuses when no source gives a plausible rank count" (fun () ->
        let crafted =
          "scalatrace-frames 3\n"
          ^ frame "header" "nranks 100000000000"
          ^ frame "chunk:0" ""
          ^ "frame end 0 00000000\n"
        in
        match Trace_io.read crafted with
        | Error _ -> ()
        | Ok (trace', _) ->
            Alcotest.failf "salvaged a %d-rank trace" (Trace.nranks trace'));
    t "strict pipeline rejects a damaged file" (fun () ->
        let trace = app_trace "ring" ~nranks:4 in
        let damaged = ablate_chunk (Trace_io.to_framed trace) ~chunk:0 in
        with_temp_file damaged (fun path ->
            match run_pipeline ~recovery:`Strict path with
            | Error (Benchgen.Pipeline.E_trace_format _) -> ()
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok _ -> Alcotest.fail "strict mode accepted a damaged trace"));
    t "salvage mode refuses a trace whose collectives cannot complete"
      (fun () ->
        (* rank 3 edited out of cg's closing allreduce and finalize
           (checksum recomputed) leaves the allreduce unfinishable, and
           `Salvage (no truncation) must say so. *)
        let trace = app_trace "cg" ~nranks:8 in
        let drop_rank_3 =
          replace_first ~before:"ranks=0:7:1" ~after:"ranks=0:2:1,4:7:1"
        in
        let damaged =
          edit_frame (Trace_io.to_framed trace) ~kind:"chunk:2" (fun p ->
              drop_rank_3 (drop_rank_3 p))
        in
        with_temp_file damaged (fun path ->
            match run_pipeline ~recovery:`Salvage path with
            | Error (Benchgen.Pipeline.E_unrecoverable_trace msg) ->
                Alcotest.(check bool)
                  "names the wait-for graph" true
                  (contains msg "waiting on")
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok _ -> Alcotest.fail "`Salvage generated from a dead wait"));
    t "best-effort generates a runnable prefix from a damaged trace"
      (fun () ->
        (* without the even ranks' loop, the odd ranks' sends have no
           receiver: best-effort cuts back to the broadcast *)
        let trace = app_trace "cg" ~nranks:8 in
        let damaged = ablate_chunk (Trace_io.to_framed trace) ~chunk:1 in
        with_temp_file damaged (fun path ->
            match run_pipeline ~recovery:`Best_effort path with
            | Error e -> Alcotest.fail (Benchgen.Pipeline.error_to_string e)
            | Ok (artifact, warnings) ->
                let has p = List.exists p warnings in
                Alcotest.(check bool)
                  "W_salvaged" true
                  (has (function Benchgen.Pipeline.W_salvaged _ -> true | _ -> false));
                Alcotest.(check bool)
                  "W_truncated_frontier" true
                  (has (function
                    | Benchgen.Pipeline.W_truncated_frontier _ -> true
                    | _ -> false));
                (* the artifact must parse and replay *)
                let report = artifact.Benchgen.Pipeline.report in
                let program = Conceptual.Parse.program report.text in
                let res =
                  Conceptual.Lower.run ~max_events:500_000
                    ~nranks:(Trace.nranks trace) program
                in
                ignore res));
    t "v2 framing keeps neighborhood participant sets and offset vectors"
      (fun () ->
        (* seq_sig compares kind/peer/bytes/tag/comm but not parts/vec —
           this test pins the neighborhood metadata itself: a traced
           partial-participant exchange must reload with the same
           participant set and offset vector, and re-save byte-stably. *)
        let prog (ctx : Mpisim.Mpi.ctx) =
          if ctx.rank mod 2 = 0 then begin
            let parts = [| 0; 2 |] in
            let me = ctx.rank / 2 in
            Mpisim.Mpi.neighbor_alltoall ~parts ctx
              ~neighbors:[| parts.((me + 1) mod 2) |]
              ~bytes_per_neighbor:48
          end;
          Mpisim.Mpi.barrier ctx;
          Mpisim.Mpi.finalize ctx
        in
        let trace, _ = Tracer.trace_run ~nranks:4 prog in
        let bytes = Trace_io.to_framed trace in
        let trace' = Trace_io.of_string bytes in
        Alcotest.(check string)
          "byte-stable" bytes
          (Trace_io.to_framed trace');
        let found = ref None in
        Tnode.iter_leaves
          (fun e ->
            if e.Event.kind = Event.E_neighbor_alltoall then found := Some e)
          (Trace.nodes trace');
        match !found with
        | None -> Alcotest.fail "neighbor event lost in the round trip"
        | Some e ->
            Alcotest.(check (option (array int)))
              "participant set survives" (Some [| 0; 2 |])
              (Option.map Array.copy e.Event.parts);
            Alcotest.(check (option (array int)))
              "offset vector survives" (Some [| 1 |])
              (Option.map Array.copy e.Event.vec);
            Alcotest.(check int) "payload" 48 e.Event.bytes);
    t "corruption campaign: typed outcomes only, salvaged traces replay"
      (fun () ->
        let s =
          Check.Corrupt.run
            { Check.Corrupt.default with seeds = 50; nranks = 4 }
        in
        List.iter
          (fun (v : Check.Corrupt.violation) ->
            Alcotest.fail
              (Printf.sprintf "seed %d app %s %s: %s" v.v_seed v.v_app
                 v.v_mutation v.v_what))
          s.violations;
        Alcotest.(check bool) "ran cases" true (s.cases > 50);
        Alcotest.(check bool)
          "every salvaged-and-generated case replayed" true
          (s.generated = s.replayed));
  ]

let suite =
  unit_tests @ checksum_valid_tests @ List.map framed_roundtrip all_app_names
