(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --self-check

   Runs one workload (collective-wide, trace-roundtrip or serve-mix) for
   about S seconds of measured passes, checks every output, prints a
   human-readable table and, as the last line of standard output, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   [--trace 0] the metrics are the end-to-end ones; with [--trace 1] a
   separate traced run gives the per-layer ones.  The metric names and
   units are those of BENCHMARK.json; [--self-check] runs every workload
   at a tiny size in both modes and confirms that each metric named there
   is present with its unit and that every output check passes.  See
   NOTES.md for what each metric measures. *)

module M = Measure

let end_to_end =
  [
    ("setup_s", "s"); ("pass_s", "s"); ("generate_s", "s"); ("events_per_s", "1/s");
    ("peak_heap_mb", "MB"); ("alloc_mwords", "Mwords");
  ]

let per_layer =
  [
    ("mpisim.engine_s", "s"); ("mpisim.events", "count");
    ("mpisim.major_words_per_event", "words"); ("mpisim.engine_exp", "exponent");
    ("scalatrace.merge_s", "s"); ("scalatrace.rsds", "count"); ("scalatrace.save_s", "s");
    ("scalatrace.load_s", "s"); ("scalatrace.trace_bytes", "bytes"); ("align.align_s", "s");
    ("wildcard.wildcard_s", "s"); ("wildcard.major_mwords", "Mwords");
    ("codegen.codegen_s", "s"); ("conceptual.pretty_s", "s"); ("codegen.statements", "count");
    ("conceptual.text_bytes", "bytes"); ("conceptual.lower_s", "s"); ("mpip.compare_s", "s");
    ("serve.admit_ms", "ms"); ("serve.exec_ms", "ms"); ("serve.server_elapsed_ms", "ms");
    ("serve.overhead_ms", "ms"); ("serve.pool.dispatches", "count");
    ("serve.pool.restarts", "count"); ("serve.server_hwm_mb", "MB");
    ("serve.job_p50_ms", "ms"); ("serve.job_p90_ms", "ms"); ("serve.jobs_per_s", "1/s");
    ("serve.jobs", "count"); ("trace.overhead_pct", "%");
  ]

(* Per-layer figures that are medians of a pass's own key. *)
let direct_layer_keys =
  [
    "mpisim.engine_s"; "mpisim.events"; "scalatrace.merge_s"; "scalatrace.rsds";
    "scalatrace.save_s"; "scalatrace.load_s"; "scalatrace.trace_bytes"; "align.align_s";
    "wildcard.wildcard_s"; "wildcard.major_mwords"; "codegen.codegen_s";
    "conceptual.pretty_s"; "codegen.statements"; "conceptual.text_bytes";
    "conceptual.lower_s"; "mpip.compare_s";
  ]

(* What a workload run produces. *)
type result = {
  values : (string * float) list;  (** the reported metrics *)
  extras : (string * string * float) list;  (** shown in the table only *)
  ops : int;
  failed : int;
  problems : string list;
}

let med passes f = M.median (List.map f passes)
let ratio a b = if b > 0. then a /. b else 0.

let of_samples ?(extras = []) values samples =
  let all = M.merge_all samples in
  { values; extras; ops = all.ops; failed = all.failed; problems = all.failures }

let combine r s = { r with ops = r.ops + s.M.ops; failed = r.failed + s.failed; problems = r.problems @ s.failures }

(* Per-layer figures common to every workload's traced passes. *)
let layer_values passes =
  List.map (fun k -> (k, med passes (fun p -> M.get p k))) direct_layer_keys
  @ [
      ( "mpisim.major_words_per_event",
        med passes (fun p -> ratio (M.get p "mpisim.major_words") (M.get p "mpisim.events")) );
    ]

(* The traced stage sum against the untraced [Pipeline.run], in percent. *)
let overhead_pct ~traced ~untraced = 100. *. ratio (traced -. untraced) untraced

(* ------------------------------------------------------------------ *)
(* Pipeline workloads                                                  *)

type flow = Collective | Roundtrip

let app name nranks =
  (match Apps.Registry.find name with
  | Some a when a.Apps.Registry.supports nranks -> ()
  | _ -> invalid_arg (Printf.sprintf "%s does not run at %d ranks" name nranks));
  { Flows.name; nranks }

let pipeline_apps ~tiny = function
  | Collective ->
      if tiny then ([ app "ep" 16; app "ft" 16 ], [ app "ep" 4; app "ft" 4 ])
      else ([ app "ep" 2048; app "ft" 512 ], [ app "ep" 256; app "ft" 64 ])
  | Roundtrip ->
      if tiny then ([ app "mg" 8; app "lu" 8 ], [ app "mg" 4; app "lu" 4 ])
      else ([ app "mg" 64; app "lu" 128 ], [ app "mg" 8; app "lu" 8 ])

let run_pipeline flow ~tiny ~seed ~seconds ~traced ~dir =
  let apps, warmup = pipeline_apps ~tiny flow in
  let pass ~traced apps =
    match flow with
    | Collective -> Flows.collective_pass ~traced ~seed ~dir apps
    | Roundtrip -> Flows.roundtrip_pass ~traced ~seed ~dir apps
  in
  (* Set-up: the scratch directory exists; a small pass of the same flow
     brings code and allocator to steady state.  Repeated, median kept. *)
  let setups = List.init (if tiny then 1 else 5) (fun _ -> M.time (pass ~traced:false warmup)) in
  let setup_s = M.median (List.map snd setups) in
  let passes = M.repeat ~seconds (pass ~traced apps) in
  let pass_s p =
    match flow with
    | Collective -> M.get p "generate_s" +. M.get p "validate_s"
    | Roundtrip -> M.get p "trace_save_s" +. M.get p "generate_s" +. M.get p "write_s"
  in
  let n = float_of_int (List.length passes) in
  if not traced then
    prerr_endline
      ("pass_s by pass: " ^ String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (pass_s p)) passes));
  let r =
    if traced then
      let exp =
        match flow with
        | Collective ->
            med passes (fun p ->
                Float.log (ratio (M.get p "mpisim.engine_full_s") (M.get p "mpisim.engine_half_s"))
                /. Float.log 2.)
        | Roundtrip -> 0.
      in
      let overhead =
        med passes (fun p ->
            overhead_pct ~traced:(M.get p "traced.generate_s") ~untraced:(M.get p "untraced.generate_s"))
      in
      of_samples
        (("mpisim.engine_exp", exp) :: ("trace.overhead_pct", overhead) :: layer_values passes)
        passes
    else
      let extras =
        match flow with
        | Collective -> [ ("validate_s", "s", med passes (fun p -> M.get p "validate_s")) ]
        | Roundtrip -> [ ("trace_save_s", "s", med passes (fun p -> M.get p "trace_save_s")) ]
      in
      of_samples
        ~extras:(("passes", "count", n) :: extras)
        [
          ("setup_s", setup_s);
          ("pass_s", med passes pass_s);
          ("generate_s", med passes (fun p -> M.get p "generate_s"));
          ("events_per_s", med passes (fun p -> ratio (M.get p "events") (pass_s p)));
          ("peak_heap_mb", med passes (fun p -> p.M.heap_mb));
          ("alloc_mwords", med passes (fun p -> M.get p "alloc_mwords"));
        ]
        passes
  in
  List.fold_left combine r (List.map fst setups)

(* ------------------------------------------------------------------ *)
(* serve-mix                                                           *)

let run_serve ~tiny ~seed ~seconds ~traced ~dir ~cli =
  let module S = Servemix in
  let sz = if tiny then S.tiny else S.full in
  let lp = S.new_loop ~seed in
  let setups = ref [] and refs = ref [] and traced_passes = ref [] in
  let hwm = ref 0. and lines = ref [] and problems = ref [] in
  let expected = ref None in
  let reference () =
    match M.in_child (S.reference_pass sz ~dir) with
    | Error e -> raise (S.Serve_failure ("reference pass: " ^ e))
    | Ok (s, e) -> (
        refs := s :: !refs;
        match !expected with
        | None -> expected := Some (List.combine S.kinds e)
        | Some e0 ->
            if List.map snd e0 <> e then problems := "reference passes disagree" :: !problems)
  in
  let between () =
    reference ();
    if traced then
      let expected k = List.assoc k (Option.get !expected) in
      traced_passes := M.sample_in_child "traced pass" (S.traced_pass sz ~dir ~expected) :: !traced_passes
  in
  for seg = 0 to sz.segments - 1 do
    (* Set-up: fixture traces written, server started, both connections
       accepted and answered. *)
    let srv, dt =
      M.time (fun () ->
          (match M.in_child (S.make_fixtures sz ~dir) with
          | Ok () -> ()
          | Error e -> problems := ("fixtures: " ^ e) :: !problems);
          S.start ~cli ~dir ~idx:seg ~seed)
    in
    setups := dt :: !setups;
    if seg = 0 then between ();
    S.closed_loop lp sz ~dir
      ~seconds:(seconds /. float_of_int sz.segments)
      ~expected:(fun k -> List.assoc k (Option.get !expected))
      ~every:sz.every ~between srv;
    hwm := Float.max !hwm (S.vm_hwm_mb srv.pid);
    lines := S.stop srv @ !lines
  done;
  let count name = List.fold_left ( +. ) 0. (S.metric_values !lines name) in
  List.iter
    (fun k -> if count k > 0. then problems := ("server metrics: " ^ k ^ " is not zero") :: !problems)
    [ "serve.pool.restarts"; "serve.pool.deaths"; "serve.pool.quarantined" ];
  let ms = List.map (fun s -> 1000. *. s) in
  let lat_ms = ms lp.latencies in
  let serving_s = S.serving_s lp in
  let jobs_per_s = float_of_int lp.jobs /. serving_s in
  let refs = !refs and traced_passes = !traced_passes in
  let values =
    if traced then
      let exec_ms =
        1000. *. med traced_passes (fun p -> M.get p "serve.exec_s")
        /. float_of_int (List.length S.kinds)
      in
      let overhead =
        overhead_pct
          ~traced:(med traced_passes (fun p -> M.get p "traced.generate_s"))
          ~untraced:(med refs (fun p -> M.get p "generate_s"))
      in
      (("mpisim.engine_exp", 0.) :: ("trace.overhead_pct", overhead) :: layer_values traced_passes)
      @ [
          ("serve.admit_ms", M.median (ms lp.admits));
          ("serve.exec_ms", exec_ms);
          ("serve.server_elapsed_ms", M.mean (ms (S.metric_values !lines "serve.job.elapsed_s")));
          ("serve.overhead_ms", M.mean lat_ms -. exec_ms);
          ("serve.pool.dispatches", count "serve.pool.dispatches");
          ("serve.pool.restarts", count "serve.pool.restarts");
          ("serve.server_hwm_mb", !hwm);
          ("serve.job_p50_ms", M.median lat_ms);
          ("serve.job_p90_ms", M.quantile 0.9 lat_ms);
          ("serve.jobs_per_s", jobs_per_s);
          ("serve.jobs", float_of_int lp.jobs);
        ]
    else
      [
        ("setup_s", M.median !setups);
        ("pass_s", M.median lp.makespans);
        ("generate_s", med refs (fun p -> M.get p "generate_s"));
        ("events_per_s", lp.events /. serving_s);
        ("peak_heap_mb", med refs (fun p -> p.M.heap_mb));
        ("alloc_mwords", med refs (fun p -> M.get p "alloc_mwords"));
      ]
  in
  let extras =
    (if traced then []
     else
       [
         ("jobs", "count", float_of_int lp.jobs);
         ("job_p50_ms", "ms", M.median lat_ms);
         ("job_p90_ms", "ms", M.quantile 0.9 lat_ms);
         ("jobs_per_s", "1/s", jobs_per_s);
       ])
    @ [
        ("batches", "count", float_of_int (List.length lp.makespans));
        ("reference_passes", "count", float_of_int (List.length refs));
      ]
  in
  let r = of_samples ~extras values (refs @ traced_passes) in
  let harness = List.length !problems in
  {
    r with
    ops = r.ops + lp.jobs + harness;
    failed = r.failed + lp.failed + harness;
    problems = r.problems @ List.rev lp.problems @ List.rev !problems;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let workloads = [ "collective-wide"; "trace-roundtrip"; "serve-mix" ]

let run_workload name ~tiny ~seed ~seconds ~traced ~dir ~cli =
  match name with
  | "collective-wide" -> run_pipeline Collective ~tiny ~seed ~seconds ~traced ~dir
  | "trace-roundtrip" -> run_pipeline Roundtrip ~tiny ~seed ~seconds ~traced ~dir
  | "serve-mix" -> run_serve ~tiny ~seed ~seconds ~traced ~dir ~cli
  | w -> invalid_arg ("unknown workload " ^ w)

let number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

(* The metrics of [r] in [defs]' order; a per-layer metric the workload
   never reaches is 0, an end-to-end one must have been measured. *)
let metrics ~traced r =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name r.values with
      | Some v -> (name, unit, v)
      | None when traced -> (name, unit, 0.)
      | None -> invalid_arg ("end-to-end metric not measured: " ^ name))
    (if traced then per_layer else end_to_end)

let result_line ~traced r =
  let ms = metrics ~traced r in
  let bad = List.filter (fun (_, _, v) -> not (Float.is_finite v)) ms in
  let failed = r.failed + List.length bad in
  let fields =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number (if Float.is_finite v then v else 0.)) u)
      ms
  in
  ( failed,
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      (failed = 0) (max 1 r.ops) failed (String.concat ", " fields) )

let print_table ~workload ~seed ~traced r =
  Printf.printf "# %s seed=%d %s run; load from 1 process, 2 cores\n" workload seed
    (if traced then "traced" else "untraced");
  List.iter (fun (n, u, v) -> Printf.printf "%-32s %14s %s\n" n (number v) u) (metrics ~traced r);
  List.iter (fun (n, u, v) -> Printf.printf "%-32s %14s %s\n" n (number v) u) r.extras;
  Printf.printf "%-32s %14s %s (%d of %d operations)\n" "fail_frac"
    (number (ratio (float_of_int r.failed) (float_of_int r.ops))) "ratio" r.failed r.ops;
  List.iter (fun p -> Printf.eprintf "check failed: %s\n" p) r.problems

(* ------------------------------------------------------------------ *)
(* Scratch space and entry points                                      *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Scratch files live under the current directory (the repository
   root), with a relative path so the server's socket name stays short.
   Removed at exit. *)
let scratch_dir () =
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      rm_rf dir;
      try Unix.rmdir root with Unix.Unix_error _ -> ());
  dir

let cli () =
  let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/benchgen_cli.exe" in
  if not (Sys.file_exists exe) then failwith ("benchgen CLI not built: " ^ exe);
  exe


(* Every metric BENCHMARK.json names, with its unit, per mode. *)
let declared () =
  let j = Obs.Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let list key =
    match Obs.Json.member key j with
    | Some (Obs.Json.Arr l) ->
        List.map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> (n, u)
            | _ -> failwith ("BENCHMARK.json: malformed entry in " ^ key))
          l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  (list "end_to_end", list "per_layer")

let self_check ~dir =
  let e2e, layers = declared () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if e2e <> end_to_end then problem "end_to_end metrics differ from BENCHMARK.json";
  if layers <> per_layer then problem "per_layer metrics differ from BENCHMARK.json";
  List.iter
    (fun workload ->
      List.iter
        (fun traced ->
          let r = run_workload workload ~tiny:true ~seed:1 ~seconds:0. ~traced ~dir ~cli:(cli ()) in
          let failed, line = result_line ~traced r in
          let mode = if traced then "traced" else "untraced" in
          Printf.printf "%s %s: %d operations, %d failed\n%!" workload mode r.ops failed;
          if failed > 0 then problem "%s %s: %d failed operations" workload mode failed;
          List.iter (fun p -> problem "%s %s: %s" workload mode p) r.problems;
          let want = if traced then layers else e2e in
          let j = Obs.Json.parse line in
          List.iter
            (fun (n, u) ->
              match Option.bind (Obs.Json.member "metrics" j) (Obs.Json.member n) with
              | Some m when Obs.Json.member "unit" m = Some (Obs.Json.Str u) -> ()
              | _ -> problem "%s %s: metric %s missing or not in %s" workload mode n u)
            want)
        [ false; true ])
    workloads;
  match List.rev !problems with
  | [] -> print_endline "self-check: ok"
  | ps ->
      List.iter (Printf.eprintf "self-check: %s\n") ps;
      exit 1

let usage () =
  prerr_endline
    "usage: bench.exe --workload (collective-wide|trace-roundtrip|serve-mix) --seed N \
     --seconds S --trace 0|1\n       bench.exe --self-check";
  exit 2

let () =
  (* A server that dies must surface as an error, not kill this process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  M.start_fork_server ();
  let args = List.tl (Array.to_list Sys.argv) in
  let dir = scratch_dir () in
  if args = [ "--self-check" ] then self_check ~dir
  else begin
    let rec parse acc = function
      | [] -> acc
      | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> parse ((k, v) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
    let workload = get "--workload" in
    if not (List.mem workload workloads) then usage ();
    let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
    let seed = int "--seed" and seconds = float_of_int (int "--seconds") in
    let r = run_workload workload ~tiny:false ~seed ~seconds ~traced ~dir ~cli:(cli ()) in
    print_table ~workload ~seed ~traced r;
    print_endline (snd (result_line ~traced r))
  end
