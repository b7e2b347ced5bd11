(* Deliberate pipeline defects, for differential-fuzzing self-tests
   (lib/check): each one breaks a distinct fidelity property so the
   oracle and shrinker can be exercised against a known-bad pipeline.
   [None] (the default) is the production pipeline. *)
type defect =
  | D_skip_wildcard  (** leave ANY_SOURCE receives unresolved (no Algorithm 2) *)
  | D_scale_bytes of int  (** multiply every point-to-point payload *)
  | D_drop_tail  (** silently drop the trace's last communication node *)

let defect_to_string = function
  | D_skip_wildcard -> "skip-wildcard"
  | D_scale_bytes k -> Printf.sprintf "scale-bytes:%d" k
  | D_drop_tail -> "drop-tail"

let defect_of_string s =
  match String.split_on_char ':' s with
  | [ "skip-wildcard" ] -> Ok D_skip_wildcard
  | [ "drop-tail" ] -> Ok D_drop_tail
  | [ "scale-bytes" ] -> Ok (D_scale_bytes 2)
  | [ "scale-bytes"; k ] -> (
      match int_of_string_opt k with
      | Some k when k >= 2 -> Ok (D_scale_bytes k)
      | _ -> Error (Printf.sprintf "bad scale-bytes factor %S (want int >= 2)" k))
  | _ ->
      Error
        (Printf.sprintf
           "unknown defect %S (expected skip-wildcard, scale-bytes[:K], \
            drop-tail)"
           s)

type recovery = [ `Strict | `Salvage | `Best_effort ]

let recovery_to_string = function
  | `Strict -> "strict"
  | `Salvage -> "salvage"
  | `Best_effort -> "best-effort"

let recovery_of_string = function
  | "strict" -> Ok `Strict
  | "salvage" -> Ok `Salvage
  | "best-effort" | "best_effort" -> Ok `Best_effort
  | s ->
      Error
        (Printf.sprintf
           "unknown recovery mode %S (expected strict, salvage, best-effort)" s)

type config = {
  name : string option;
  net : Mpisim.Netmodel.t option;
  fault : Mpisim.Fault.t option;
  max_events : int option;
  max_virtual_time : float option;
  strategy : Wildcard.strategy option;
  compute_floor_usecs : float option;
  obs : Obs.Sink.t;
  defect : defect option;
  recovery : recovery;
  coll_alg : Mpisim.Coll_alg.t;
}

let default =
  {
    name = None;
    net = None;
    fault = None;
    max_events = None;
    max_virtual_time = None;
    strategy = None;
    compute_floor_usecs = None;
    obs = Obs.Sink.nil;
    defect = None;
    recovery = `Strict;
    coll_alg = `Monolithic;
  }

type source =
  | From_trace of Scalatrace.Trace.t
  | From_file of string
  | From_app of { nranks : int; app : Mpisim.Mpi.ctx -> unit }

type report = {
  program : Conceptual.Ast.program;
  text : string;
  aligned : bool;
  resolved : bool;
  input_rsds : int;
  final_rsds : int;
  statements : int;
}

type warning =
  | W_aligned of { input_rsds : int; output_rsds : int }
  | W_wildcard_resolved
  | W_wildcard_fallback of string
  | W_salvaged of Scalatrace.Trace_io.report
  | W_truncated_frontier of { anchors : int; dropped_events : int }
  | W_missing_participants of { missing : int list; detail : string }

type gen_error =
  | E_potential_deadlock of string
  | E_align of string
  | E_wildcard of string
  | E_trace_format of string
  | E_io of string
  | E_codegen of string
  | E_unrecoverable_trace of string

let warning_to_string = function
  | W_aligned { input_rsds; output_rsds } ->
      Printf.sprintf
        "collective alignment rewrote the trace (%d -> %d RSDs)" input_rsds
        output_rsds
  | W_wildcard_resolved ->
      "wildcard receives were pinned to concrete senders (Algorithm 2)"
  | W_wildcard_fallback msg -> "wildcard resolution degraded: " ^ msg
  | W_salvaged report ->
      "trace was damaged; loaded what survived — "
      ^ Scalatrace.Trace_io.report_to_string report
  | W_truncated_frontier { anchors; dropped_events } ->
      Printf.sprintf
        "benchmark truncated to the last globally consistent frontier (%d \
         world collective%s kept, %d trace events dropped)"
        anchors
        (if anchors = 1 then "" else "s")
        dropped_events
  | W_missing_participants { missing; detail } ->
      Printf.sprintf
        "collective participants missing from the trace (rank%s %s): %s"
        (if List.length missing = 1 then "" else "s")
        (String.concat "," (List.map string_of_int missing))
        detail

let error_to_string = function
  | E_potential_deadlock msg -> "potential deadlock: " ^ msg
  | E_align msg -> "collective alignment failed: " ^ msg
  | E_wildcard msg -> "wildcard resolution failed: " ^ msg
  | E_trace_format msg -> "malformed trace: " ^ msg
  | E_io msg -> "I/O error: " ^ msg
  | E_codegen msg -> "code generation failed: " ^ msg
  | E_unrecoverable_trace msg -> "unrecoverable trace: " ^ msg

(* Stable machine-readable tags.  These are a wire contract (serve-mode
   responses, metrics labels): never rename one, only add. *)
let warning_tag = function
  | W_aligned _ -> "aligned"
  | W_wildcard_resolved -> "wildcard_resolved"
  | W_wildcard_fallback _ -> "wildcard_fallback"
  | W_salvaged _ -> "salvaged"
  | W_truncated_frontier _ -> "truncated_frontier"
  | W_missing_participants _ -> "missing_participants"

let error_tag = function
  | E_potential_deadlock _ -> "potential_deadlock"
  | E_align _ -> "align"
  | E_wildcard _ -> "wildcard"
  | E_trace_format _ -> "trace_format"
  | E_io _ -> "io"
  | E_codegen _ -> "codegen"
  | E_unrecoverable_trace _ -> "unrecoverable_trace"

type artifact = {
  report : report;
  resolved_trace : Scalatrace.Trace.t;
  trace_outcome : Mpisim.Engine.outcome option;
  metrics : Obs.Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Instrumentation plumbing                                            *)

(* Stage spans are timestamped by a per-run tick clock (one microsecond
   per emission, starting at 0) rather than the wall clock, so exported
   traces are a pure function of the run and stay byte-identical across
   same-seed repetitions. *)
type clock = { mutable ticks : float }

let fresh_clock () = { ticks = 0. }

let tick c =
  let t = c.ticks in
  c.ticks <- t +. 1.;
  t

(* Open a pipeline-stage span around [f], closing it on any exit. *)
let with_span (obs : Obs.Sink.t) clock ?(args = []) name f =
  if not obs.enabled then f ()
  else begin
    Obs.Sink.span_begin obs ~pid:Obs.Sink.pipeline_pid ~tid:0 ~cat:"stage"
      ~args ~ts:(tick clock) name;
    Fun.protect
      ~finally:(fun () ->
        Obs.Sink.span_end obs ~pid:Obs.Sink.pipeline_pid ~tid:0
          ~ts:(tick clock) name)
      f
  end

(* Count completed collectives per operation via the engine's
   [on_collective_complete] observation point; composed with the mpiP
   profiler hook below. *)
let collective_counter metrics =
  {
    Mpisim.Hooks.nil with
    on_collective_complete =
      (fun ~time:_ ~comm:_ ~name ~participants:_ ->
        Obs.Metrics.inc metrics ~labels:[ ("op", name) ] "sim.collectives");
  }

let record_outcome metrics prefix (o : Mpisim.Engine.outcome) =
  let c name v = Obs.Metrics.inc metrics ~by:v (prefix ^ "." ^ name) in
  c "events" o.events;
  c "messages" o.messages;
  c "p2p_bytes" o.p2p_bytes;
  c "unexpected" o.unexpected;
  c "flow_stalls" o.flow_stalls;
  c "retries" o.retries;
  c "timeouts" o.timeouts;
  c "dropped" o.dropped;
  Obs.Metrics.set metrics (prefix ^ ".elapsed_s") o.elapsed

(* ------------------------------------------------------------------ *)
(* Defect injection (differential-fuzzing self-tests)                  *)

let scale_p2p_bytes k trace =
  let nodes =
    Scalatrace.Tnode.map_leaves
      (fun (e : Scalatrace.Event.t) ->
        if Scalatrace.Event.is_p2p e.kind && e.bytes > 0 then
          (* [hcache] covers [bytes]; reset it on the altered copy. *)
          { (Scalatrace.Event.copy e) with bytes = e.bytes * k; hcache = 0 }
        else e)
      (Scalatrace.Trace.nodes trace)
  in
  Scalatrace.Trace.with_nodes trace nodes

(* Drop the last communication node, keeping any trailing MPI_Finalize
   (which generates no code, so dropping it would be a no-op defect). *)
let drop_tail_node trace =
  let is_finalize = function
    | Scalatrace.Tnode.Leaf e -> e.Scalatrace.Event.kind = Scalatrace.Event.E_finalize
    | Scalatrace.Tnode.Loop _ -> false
  in
  let rec drop_first_non_finalize = function
    | [] -> []
    | x :: tl when is_finalize x -> x :: drop_first_non_finalize tl
    | _ :: tl -> tl
  in
  let nodes =
    List.rev (drop_first_non_finalize (List.rev (Scalatrace.Trace.nodes trace)))
  in
  Scalatrace.Trace.with_nodes trace nodes

(* ------------------------------------------------------------------ *)
(* The pipeline                                                        *)

(* Internal escape from [acquire] when even the tolerant reader finds
   nothing usable; surfaced as [E_unrecoverable_trace]. *)
exception Unrecoverable of string

(* Load a trace file under the configured recovery mode: [`Strict]
   accepts only an undamaged file (any damage is a format error); the
   tolerant modes keep what the reader recovered and report the damage. *)
let load_with_recovery cfg ~warn metrics path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match cfg.recovery with
  | `Strict -> Scalatrace.Trace_io.of_string ~path text
  | `Salvage | `Best_effort -> (
      match Scalatrace.Trace_io.read text with
      | Error { reason; _ } -> raise (Unrecoverable (path ^ ": " ^ reason))
      | Ok (trace, report) ->
          if Scalatrace.Trace_io.is_degraded report then (
            Obs.Metrics.inc metrics ~by:report.frames_dropped
              "salvage.frames_dropped";
            Obs.Metrics.inc metrics
              ~by:report.ranks_missing
              "salvage.ranks_missing";
            (match Scalatrace.Trace_io.events_lost report with
            | Some n -> Obs.Metrics.inc metrics ~by:n "salvage.events_lost"
            | None -> ());
            warn (W_salvaged report));
          trace)

let acquire cfg ~warn clock metrics source =
  with_span cfg.obs clock "trace" (fun () ->
      match source with
      | From_trace trace -> (trace, None)
      | From_file path -> (load_with_recovery cfg ~warn metrics path, None)
      | From_app { nranks; app } ->
          let profile = Mpip.create () in
          let hooks =
            Mpisim.Hooks.compose (Mpip.hook profile)
              (collective_counter metrics)
          in
          let trace, outcome =
            Scalatrace.Tracer.trace_run ?net:cfg.net ?fault:cfg.fault
              ?max_events:cfg.max_events ?max_virtual_time:cfg.max_virtual_time
              ~coll_alg:cfg.coll_alg ~obs:cfg.obs ~extra_hooks:[ hooks ] ~nranks
              app
          in
          Mpip.record_metrics profile metrics;
          record_outcome metrics "sim" outcome;
          (trace, Some outcome))

let run cfg source =
  let clock = fresh_clock () in
  let metrics = Obs.Metrics.create () in
  let warnings = ref [] in
  let warn w =
    warnings := w :: !warnings;
    Obs.Metrics.inc metrics
      ~labels:[ ("kind", warning_tag w) ]
      "pipeline.warnings"
  in
  let name =
    match source with
    | From_file path -> Some (Option.value ~default:path cfg.name)
    | From_trace _ | From_app _ -> cfg.name
  in
  match acquire cfg ~warn clock metrics source with
  | exception Scalatrace.Trace_io.Format_error msg -> Error (E_trace_format msg)
  | exception Sys_error msg -> Error (E_io msg)
  | exception Unrecoverable msg -> Error (E_unrecoverable_trace msg)
  | trace, trace_outcome -> (
      try
        let input_rsds = Scalatrace.Trace.rsd_count trace in
        Obs.Metrics.set metrics "trace.input_rsds" (float_of_int input_rsds);
        let trace, aligned =
          with_span cfg.obs clock "align" (fun () ->
              let needs_align =
                Scalatrace.Trace.has_unaligned_collectives trace
              in
              (* Under best-effort recovery, a trace whose channels do not
                 close (truncated streams) is cut back to the last
                 globally consistent frontier even when no collective
                 needs aligning. *)
              let needs_cut =
                cfg.recovery = `Best_effort
                && (not needs_align)
                && not (Frontier.balanced trace)
              in
              if not (needs_align || needs_cut) then (trace, false)
              else
                let policy =
                  match cfg.recovery with
                  | `Best_effort -> `Best_effort
                  | `Strict | `Salvage -> `Strict
                in
                let o = Align.run_policy ~policy trace in
                (match o.Align.stall with
                | Some st ->
                    warn
                      (W_missing_participants
                         {
                           missing = st.Align.st_missing;
                           detail = Align.stall_message st;
                         })
                | None -> ());
                (match o.Align.cut_anchors with
                | Some anchors ->
                    Obs.Metrics.inc metrics ~by:o.Align.dropped_events
                      "salvage.events_truncated";
                    warn
                      (W_truncated_frontier
                         { anchors; dropped_events = o.Align.dropped_events })
                | None -> ());
                (o.Align.out, needs_align))
        in
        if aligned then
          warn
            (W_aligned
               { input_rsds; output_rsds = Scalatrace.Trace.rsd_count trace });
        let trace, resolved =
          with_span cfg.obs clock "wildcard" (fun () ->
              match cfg.defect with
              | Some D_skip_wildcard -> (trace, false)
              | _ ->
                  Wildcard.resolve_if_needed ?strategy:cfg.strategy
                    ~on_fallback:(fun msg -> warn (W_wildcard_fallback msg))
                    trace)
        in
        if resolved then warn W_wildcard_resolved;
        let trace =
          match cfg.defect with
          | Some (D_scale_bytes k) -> scale_p2p_bytes k trace
          | Some D_drop_tail -> drop_tail_node trace
          | Some D_skip_wildcard | None -> trace
        in
        let report =
          with_span cfg.obs clock "codegen" (fun () ->
              let program =
                Codegen.program ?name
                  ?compute_floor_usecs:cfg.compute_floor_usecs trace
              in
              let text = Conceptual.Pretty.program program in
              {
                program;
                text;
                aligned;
                resolved;
                input_rsds;
                final_rsds = Scalatrace.Trace.rsd_count trace;
                statements = Conceptual.Ast.size program;
              })
        in
        Obs.Metrics.set metrics "trace.final_rsds"
          (float_of_int report.final_rsds);
        Obs.Metrics.set metrics "program.statements"
          (float_of_int report.statements);
        Ok
          ( { report; resolved_trace = trace; trace_outcome; metrics },
            List.rev !warnings )
      with
      | Wildcard.Potential_deadlock msg -> Error (E_potential_deadlock msg)
      | Align.Incomplete st -> Error (E_unrecoverable_trace (Align.stall_message st))
      | Align.Align_error msg -> Error (E_align msg)
      | Wildcard.Wildcard_error msg -> Error (E_wildcard msg)
      | Codegen.Codegen_error msg -> Error (E_codegen msg)
      | Sys_error msg -> Error (E_io msg))

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

type fidelity = {
  f_original : Mpisim.Engine.outcome;
  f_generated : Mpisim.Engine.outcome;
  f_error_pct : float;
  f_mpip_diff : string list;
}

let validate cfg ~nranks app (artifact : artifact) =
  let clock = fresh_clock () in
  let metrics = artifact.metrics in
  let generated =
    with_span cfg.obs clock "replay" (fun () ->
        let profile = Mpip.create () in
        let hooks =
          Mpisim.Hooks.compose (Mpip.hook profile) (collective_counter metrics)
        in
        let r =
          Conceptual.Lower.run ?net:cfg.net ?fault:cfg.fault
            ?max_events:cfg.max_events ?max_virtual_time:cfg.max_virtual_time
            ~coll_alg:cfg.coll_alg ~hooks:[ hooks ] ~nranks
            artifact.report.program
        in
        (r.Conceptual.Lower.outcome, profile))
  in
  with_span cfg.obs clock "compare" (fun () ->
      let gen_outcome, gen_profile = generated in
      let orig_profile = Mpip.create () in
      let orig_outcome =
        Mpisim.Mpi.run ?net:cfg.net ?fault:cfg.fault ?max_events:cfg.max_events
          ?max_virtual_time:cfg.max_virtual_time ~coll_alg:cfg.coll_alg
          ~hooks:[ Mpip.hook orig_profile ]
          ~nranks app
      in
      record_outcome metrics "replay" gen_outcome;
      let error_pct =
        Util.Stats.pct_error ~reference:orig_outcome.Mpisim.Engine.elapsed
          ~measured:gen_outcome.Mpisim.Engine.elapsed
      in
      let mpip_diff = Mpip.diff orig_profile gen_profile in
      Obs.Metrics.set metrics "fidelity.error_pct" error_pct;
      Obs.Metrics.inc metrics ~by:(List.length mpip_diff)
        "fidelity.mpip_discrepancies";
      {
        f_original = orig_outcome;
        f_generated = gen_outcome;
        f_error_pct = error_pct;
        f_mpip_diff = mpip_diff;
      })
