(* Corruption-robustness campaigns.

   Where {!Campaign} fuzzes the pipeline's *semantics* with random
   programs, this module fuzzes its *ingestion* with damaged trace
   files: take a known-good framed trace, mutilate it (bit flips,
   truncations — including one at every frame boundary — whole-chunk
   ablation, garbled headers, and checksum-valid edits), and assert the
   robustness contract:

   - no mutation may crash or hang the loader or the pipeline — every
     outcome is typed (strict load, salvage report, typed [gen_error]);
   - strict loading is the reader's zero-damage verdict: [of_string]
     raises exactly when [read] returns [Error] or a degraded report;
   - under best-effort recovery, every salvaged trace with at least two
     surviving ranks must still yield a parseable, replayable benchmark.

   All mutations are deterministic functions of the seed. *)

type outcome_kind =
  | O_strict_ok  (** the damage missed everything the reader checks *)
  | O_salvaged_generated  (** salvage + best-effort pipeline succeeded *)
  | O_salvaged_error of string  (** salvaged, but the pipeline said no *)
  | O_unrecoverable  (** the reader itself gave up (typed) *)

type violation = {
  v_seed : int;
  v_app : string;
  v_mutation : string;
  v_what : string;  (** what broke the contract *)
}

type config = {
  seed_start : int;
  seeds : int;
  apps : string list;  (** registry apps to draw baselines from *)
  nranks : int;
  sweep_boundaries : bool;
      (** additionally truncate each baseline at every frame boundary *)
  replay_max_events : int;  (** watchdog for the replay check *)
  log : string -> unit;
}

let default =
  {
    seed_start = 1;
    seeds = 100;
    apps = [ "ring"; "stencil2d"; "butterfly"; "cg" ];
    nranks = 8;
    sweep_boundaries = true;
    replay_max_events = 500_000;
    log = ignore;
  }

type summary = {
  cases : int;
  strict_ok : int;
  salvaged : int;
  unrecoverable : int;
  generated : int;
  replayed : int;
  violations : violation list;
  metrics : Obs.Metrics.t;
}

(* ------------------------------------------------------------------ *)
(* Baselines                                                            *)

let baseline_cache : (string * int, string) Hashtbl.t = Hashtbl.create 8

let baseline ~nranks name =
  match Hashtbl.find_opt baseline_cache (name, nranks) with
  | Some bytes -> bytes
  | None ->
      let app =
        match Apps.Registry.find name with
        | Some a -> a
        | None -> invalid_arg (Printf.sprintf "Corrupt: unknown app %S" name)
      in
      let nranks = Apps.Registry.fit_nranks app ~wanted:nranks in
      let trace, _ =
        Scalatrace.Tracer.trace_run ~nranks (app.program ())
      in
      let bytes = Scalatrace.Trace_io.to_framed trace in
      Hashtbl.replace baseline_cache (name, nranks) bytes;
      bytes

(* Byte offsets of every frame-header line — the interesting truncation
   points. *)
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

(* Byte offsets of the chunk frames' header lines. *)
let chunk_frames bytes =
  List.filter
    (fun pos ->
      String.length bytes - pos > 12 && String.sub bytes pos 12 = "frame chunk:")
    (frame_boundaries bytes)

(* ------------------------------------------------------------------ *)
(* Mutations                                                            *)

let mutate rng bytes =
  let n = String.length bytes in
  match Random.State.int rng 5 with
  | 0 ->
      let i = Random.State.int rng n in
      let b = Bytes.of_string bytes in
      let bit = 1 lsl Random.State.int rng 8 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
      (Printf.sprintf "bit-flip@%d" i, Bytes.to_string b)
  | 1 ->
      let i = Random.State.int rng n in
      (Printf.sprintf "truncate@%d" i, String.sub bytes 0 i)
  | 2 -> (
      match frame_boundaries bytes with
      | [] -> ("truncate@0", "")
      | bs ->
          let i = List.nth bs (Random.State.int rng (List.length bs)) in
          (Printf.sprintf "truncate-boundary@%d" i, String.sub bytes 0 i))
  | 3 -> (
      (* ablate one whole chunk frame: header line + payload + separator *)
      let bs = frame_boundaries bytes in
      match chunk_frames bytes with
      | [] -> ("noop", bytes)
      | cf ->
          let start = List.nth cf (Random.State.int rng (List.length cf)) in
          let stop =
            match List.find_opt (fun b -> b > start) bs with
            | Some b -> b
            | None -> String.length bytes
          in
          ( Printf.sprintf "ablate-chunk@%d" start,
            String.sub bytes 0 start
            ^ String.sub bytes stop (String.length bytes - stop) ))
  | _ -> (
      (* garble a frame-header line *)
      match frame_boundaries bytes with
      | [] -> ("noop", bytes)
      | bs ->
          let pos = List.nth bs (Random.State.int rng (List.length bs)) in
          let b = Bytes.of_string bytes in
          Bytes.set b (pos + 2) '?';
          (Printf.sprintf "garble-header@%d" pos, Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Checksum-valid edits                                                 *)

(* Offset of the first [sub] in [s]. *)
let find_sub s sub =
  let n = String.length sub in
  let rec go i = if String.sub s i n = sub then i else go (i + 1) in
  go 0

let splice s ~pos ~len text =
  String.sub s 0 pos ^ text ^ String.sub s (pos + len) (String.length s - pos - len)

(* [bytes] with the first [kind] frame's payload rewritten by [f] under a
   recomputed header. *)
let rewrite_frame bytes ~kind f =
  let start = find_sub bytes ("\nframe " ^ kind ^ " ") + 1 in
  let eol = String.index_from bytes start '\n' in
  let len = Scanf.sscanf (String.sub bytes start (eol - start)) "frame %_s %d" Fun.id in
  let payload = f (String.sub bytes (eol + 1) len) in
  splice bytes ~pos:start ~len:(eol + 1 + len - start)
    (Scalatrace.Trace_io.frame_header ~kind ~payload ^ "\n" ^ payload)

let replace_first s ~before ~after =
  splice s ~pos:(find_sub s before) ~len:(String.length before) after

(* Damage no checksum can see, applied to a clean baseline: every
   frame's CRC stays valid, so only the reader's structural checks can
   catch it. *)
let crafted bytes =
  let trace = Scalatrace.Trace_io.of_string bytes in
  let undeclared =
    1 + List.fold_left (fun m (id, _) -> max m id) 0 (Scalatrace.Trace.comms trace)
  in
  let total = Scalatrace.Trace.event_count trace in
  let chunks = List.length (chunk_frames bytes) in
  let terminator = String.length bytes - String.length "frame end 0 00000000\n" in
  (* the header frame comes first: magic line, header line, "nranks N" *)
  let separator =
    String.index_from bytes (find_sub bytes "\nnranks " + 1) '\n'
  in
  [
    ("bad-separator", splice bytes ~pos:separator ~len:1 "X");
    ( "extra-chunk-frame",
      splice bytes ~pos:terminator ~len:0
        (Scalatrace.Trace_io.frame_header
           ~kind:(Printf.sprintf "chunk:%d" chunks)
           ~payload:""
        ^ "\n\n") );
    ( "manifest-total",
      rewrite_frame bytes ~kind:"timing"
        (replace_first
           ~before:(Printf.sprintf "events %d\n" total)
           ~after:(Printf.sprintf "events %d\n" (total + 1))) );
    ( "undeclared-comm",
      rewrite_frame bytes
        ~kind:(Printf.sprintf "chunk:%d" (chunks - 1))
        (replace_first ~before:" comm=0 "
           ~after:(Printf.sprintf " comm=%d " undeclared)) );
  ]

(* ------------------------------------------------------------------ *)
(* One case                                                             *)

let surviving_ranks (report : Scalatrace.Trace_io.report) =
  List.fold_left
    (fun n (rr : Scalatrace.Trace_io.rank_recovery) ->
      if rr.rr_events > 0 then n + Util.Rank_set.cardinal rr.rr_ranks else n)
    0 report.per_rank

(* Run one mutated byte string through strict load, the reader and the
   best-effort pipeline → parse → replay, classifying the outcome and
   returning the contract violation, if any. *)
let check_case cfg ~seed ~app ~mutation bytes =
  let violation what = Some { v_seed = seed; v_app = app; v_mutation = mutation; v_what = what } in
  let strict_ok =
    match Scalatrace.Trace_io.of_string bytes with
    | _trace -> true
    | exception Scalatrace.Trace_io.Format_error _ -> false
  in
  (* strict loading must fail exactly when the reader reports damage *)
  let contract ~degraded =
    if strict_ok = degraded then
      violation
        (if strict_ok then "strict load accepted a file the reader reports as damaged"
         else "strict load rejected a file the reader reports intact")
    else None
  in
  match Scalatrace.Trace_io.read bytes with
  | exception e ->
      (O_unrecoverable, violation ("reader raised " ^ Printexc.to_string e), false)
  | Error _ -> (O_unrecoverable, contract ~degraded:true, false)
  | Ok (_, report)
    when strict_ok || not (Scalatrace.Trace_io.is_degraded report) ->
      (O_strict_ok, contract ~degraded:(Scalatrace.Trace_io.is_degraded report), false)
  | Ok (trace, report) -> (
      let survivors = surviving_ranks report in
      let cfg' =
        {
          Benchgen.Pipeline.default with
          recovery = `Best_effort;
          max_events = Some cfg.replay_max_events;
        }
      in
      match
        Benchgen.Pipeline.run cfg' (Benchgen.Pipeline.From_trace trace)
      with
      | exception e ->
          ( O_salvaged_error (Printexc.to_string e),
            violation ("pipeline raised " ^ Printexc.to_string e),
            false )
      | Error e ->
          let msg = Benchgen.Pipeline.error_to_string e in
          ( O_salvaged_error msg,
            (if survivors >= 2 then
               violation
                 (Printf.sprintf
                    "best-effort generation refused a trace with %d \
                     surviving ranks: %s"
                    survivors msg)
             else None),
            false )
      | Ok (artifact, _warnings) -> (
          let text = artifact.Benchgen.Pipeline.report.text in
          match Conceptual.Parse.program text with
          | exception e ->
              ( O_salvaged_generated,
                violation
                  ("generated benchmark does not parse: "
                 ^ Printexc.to_string e),
                false )
          | program -> (
              match
                Conceptual.Lower.run
                  ~max_events:cfg.replay_max_events
                  ~nranks:(Scalatrace.Trace.nranks trace)
                  program
              with
              | _res -> (O_salvaged_generated, None, true)
              | exception e ->
                  ( O_salvaged_generated,
                    violation
                      ("generated benchmark does not replay: "
                     ^ Printexc.to_string e),
                    false ))))

(* ------------------------------------------------------------------ *)
(* Campaign                                                             *)

let run cfg =
  let metrics = Obs.Metrics.create () in
  let strict_ok = ref 0
  and salvaged = ref 0
  and unrecoverable = ref 0
  and generated = ref 0
  and replayed = ref 0
  and cases = ref 0 in
  let violations = ref [] in
  let record (kind, viol, did_replay) =
    incr cases;
    let k =
      match kind with
      | O_strict_ok ->
          incr strict_ok;
          "strict_ok"
      | O_salvaged_generated ->
          incr salvaged;
          incr generated;
          "salvaged_generated"
      | O_salvaged_error _ ->
          incr salvaged;
          "salvaged_error"
      | O_unrecoverable ->
          incr unrecoverable;
          "unrecoverable"
    in
    if did_replay then incr replayed;
    Obs.Metrics.inc metrics ~labels:[ ("outcome", k) ] "corrupt.cases";
    match viol with
    | None -> ()
    | Some v ->
        violations := v :: !violations;
        Obs.Metrics.inc metrics "corrupt.violations";
        cfg.log
          (Printf.sprintf "VIOLATION seed=%d app=%s %s: %s" v.v_seed v.v_app
             v.v_mutation v.v_what)
  in
  (* exhaustive frame-boundary truncation sweep *)
  if cfg.sweep_boundaries then
    List.iter
      (fun app ->
        let bytes = baseline ~nranks:cfg.nranks app in
        List.iter
          (fun pos ->
            let mutation = Printf.sprintf "sweep-truncate@%d" pos in
            record
              (check_case cfg ~seed:0 ~app ~mutation
                 (String.sub bytes 0 pos)))
          (frame_boundaries bytes))
      cfg.apps;
  (* checksum-valid edits *)
  List.iter
    (fun app ->
      List.iter
        (fun (mutation, mutated) -> record (check_case cfg ~seed:0 ~app ~mutation mutated))
        (crafted (baseline ~nranks:cfg.nranks app)))
    cfg.apps;
  (* seeded random mutations *)
  for seed = cfg.seed_start to cfg.seed_start + cfg.seeds - 1 do
    let app = List.nth cfg.apps (seed mod List.length cfg.apps) in
    let bytes = baseline ~nranks:cfg.nranks app in
    let rng = Random.State.make [| seed; 0x5eed |] in
    let mutation, mutated = mutate rng bytes in
    record (check_case cfg ~seed ~app ~mutation mutated)
  done;
  {
    cases = !cases;
    strict_ok = !strict_ok;
    salvaged = !salvaged;
    unrecoverable = !unrecoverable;
    generated = !generated;
    replayed = !replayed;
    violations = List.rev !violations;
    metrics;
  }
