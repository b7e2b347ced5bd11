module Pipeline = Benchgen.Pipeline

(* Result shape marshaled back from the worker: everything the
   response needs, nothing pipeline-internal. *)
type worker_result =
  | R_ok of Protocol.ok_info
  | R_error of Protocol.error_info

let attempt (sub : Protocol.submit) ~recovery : worker_result =
  let non_retryable tag detail =
    R_error
      { Protocol.e_tag = tag; e_path = None; e_retryable = false;
        e_detail = detail }
  in
  let run_pipeline ?path cfg source =
    match Pipeline.run cfg source with
    | Error e -> R_error (Protocol.error_of_gen_error ?path e)
    | Ok (artifact, warnings) ->
        let report = artifact.Pipeline.report in
        (match sub.sub_out with
        | None -> ()
        | Some out ->
            let oc = open_out out in
            output_string oc report.Pipeline.text;
            close_out oc);
        R_ok
          {
            Protocol.ok_statements = report.Pipeline.statements;
            ok_final_rsds = report.Pipeline.final_rsds;
            (* overwritten by the pool with the attempt's level *)
            ok_recovery = Pipeline.recovery_to_string recovery;
            ok_warnings =
              List.map
                (fun w ->
                  (Pipeline.warning_tag w, Pipeline.warning_to_string w))
                warnings;
            ok_text =
              (if sub.sub_emit_text then Some report.Pipeline.text else None);
            ok_out = sub.sub_out;
          }
  in
  match sub.sub_source with
  | Protocol.J_file path ->
      let cfg =
        { Pipeline.default with recovery; name = Some sub.sub_id }
      in
      run_pipeline ~path cfg (Pipeline.From_file path)
  | Protocol.J_app { app; nranks; cls } -> (
      match Apps.Registry.find app with
      | None ->
          non_retryable "unknown_app"
            (Printf.sprintf "no registered application named %S" app)
      | Some a -> (
          match Apps.Params.cls_of_string cls with
          | None ->
              non_retryable "bad_class"
                (Printf.sprintf "unknown problem class %S (S|W|A|B|C)" cls)
          | Some cls ->
              let nranks = Apps.Registry.fit_nranks a ~wanted:nranks in
              let cfg =
                { Pipeline.default with recovery; name = Some sub.sub_id }
              in
              run_pipeline cfg
                (Pipeline.From_app { nranks; app = a.program ~cls () })))
