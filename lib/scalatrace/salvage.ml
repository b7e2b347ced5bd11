(* Tolerant loader for damaged trace files.

   Strategy: scan the framed container with resynchronization (a frame
   whose header is garbled or whose checksum fails is dropped; scanning
   resumes at the next line starting with "frame "), then rebuild a
   trace from whatever sections survived.  Rank streams are cut to their
   longest well-formed prefix; missing sections are reconstructed from
   redundant ones (nranks from the timing manifest or the rank-frame
   indices, the communicator table defaults to MPI_COMM_WORLD).  The
   result is a typed report — never an exception — unless nothing
   usable remains. *)

type rank_recovery = {
  rr_rank : int;
  rr_events : int;
  rr_events_lost : int option;
  rr_truncated : bool;
}

type report = {
  frames_seen : int;
  frames_dropped : int;
  ranks_missing : int list;
  per_rank : rank_recovery list;
  notes : string list;
}

type outcome = (Trace.t * report, string) result

let is_degraded r =
  r.frames_dropped > 0
  || r.ranks_missing <> []
  || List.exists (fun rr -> rr.rr_truncated) r.per_rank

let events_lost r =
  List.fold_left
    (fun acc rr ->
      match (acc, rr.rr_events_lost) with
      | Some a, Some l -> Some (a + l)
      | _ -> None)
    (Some 0) r.per_rank

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "salvage report (format v2): %d/%d frames intact"
       (r.frames_seen - r.frames_dropped)
       r.frames_seen);
  (match events_lost r with
  | Some 0 -> ()
  | Some n -> Buffer.add_string b (Printf.sprintf ", %d events lost" n)
  | None -> Buffer.add_string b ", events lost unknown");
  if r.ranks_missing <> [] then
    Buffer.add_string b
      (Printf.sprintf "\n  ranks missing entirely: %s"
         (String.concat "," (List.map string_of_int r.ranks_missing)));
  List.iter
    (fun rr ->
      if rr.rr_truncated then
        Buffer.add_string b
          (Printf.sprintf "\n  rank %d: %d events recovered%s%s" rr.rr_rank
             rr.rr_events
             (match rr.rr_events_lost with
             | Some l -> Printf.sprintf ", %d lost" l
             | None -> ", losses unknown")
             (if rr.rr_truncated then " (stream truncated)" else "")))
    r.per_rank;
  List.iter (fun n -> Buffer.add_string b ("\n  note: " ^ n)) r.notes;
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Tolerant frame scan                                                  *)

(* Find the next plausible frame-header line at or after [pos]. *)
let resync text pos =
  let n = String.length text in
  let rec go p =
    if p >= n then None
    else
      match String.index_from_opt text p '\n' with
      | None -> None
      | Some nl ->
          if nl + 1 < n && n - (nl + 1) >= 6
             && String.sub text (nl + 1) 6 = "frame " then Some (nl + 1)
          else go (nl + 1)
  in
  if pos < n && n - pos >= 6 && String.sub text pos 6 = "frame " then Some pos
  else go pos

(* Scan all frames, skipping damage.  Returns the intact (kind, payload)
   list in order, the number of frames seen, the number dropped, and
   whether the end-of-trace terminator frame was reached (its absence
   means the file was cut off, even if every frame before the cut is
   intact). *)
let scan_tolerant text =
  let n = String.length text in
  let line_end pos =
    match String.index_from_opt text pos '\n' with Some i -> i | None -> n
  in
  let frames = ref [] and seen = ref 0 and dropped = ref 0 in
  let pos = ref (line_end 0 + 1) (* skip magic line *) in
  let finished = ref false in
  let terminated = ref false in
  while not !finished do
    match resync text !pos with
    | None -> finished := true
    | Some p -> (
        let e = line_end p in
        let header = String.sub text p (e - p) in
        match String.split_on_char ' ' header with
        | [ "frame"; "end"; "0"; _ ] ->
            terminated := true;
            finished := true
        | [ "frame"; kind; len_s; crc_s ] -> (
            incr seen;
            match (int_of_string_opt len_s, Util.Crc32.of_hex crc_s) with
            | Some len, Some crc when len >= 0 && e + 1 + len <= n ->
                let payload = String.sub text (e + 1) len in
                if Util.Crc32.string payload = crc then
                  frames := (kind, payload) :: !frames
                else incr dropped;
                (* the length told us where the next header starts even
                   when the payload is damaged *)
                pos := e + 1 + len + 1
            | Some len, Some _ when len >= 0 ->
                (* header intact but payload runs past end of file *)
                incr dropped;
                finished := true
            | _ ->
                (* garbled header: resync from the next line *)
                incr dropped;
                pos := e + 1)
        | _ ->
            (* a line that merely starts with "frame " *)
            incr dropped;
            pos := e + 1)
  done;
  (List.rev !frames, !seen, !dropped, !terminated)

(* ------------------------------------------------------------------ *)
(* Assembly from surviving frames                                       *)

let keep_known_comms ~comms nodes =
  let known = List.map fst comms in
  let dropped = ref 0 in
  let rec filter ns =
    List.filter_map
      (fun n ->
        match n with
        | Tnode.Leaf (e : Event.t) ->
            if List.mem e.comm known then Some n
            else (
              incr dropped;
              None)
        | Tnode.Loop { count; body; _ } -> (
            match filter body with
            | [] -> None
            | body' -> Some (Tnode.loop ~count body')))
      ns
  in
  let ns = filter nodes in
  (ns, !dropped)

let of_framed text =
  let frames, seen, dropped, terminated = scan_tolerant text in
  (* A missing terminator is lost data even when every surviving frame is
     intact (e.g. a cut right before the timing frame): count it as one
     dropped frame so the report registers the damage. *)
  let seen, dropped = if terminated then (seen, dropped) else (seen + 1, dropped + 1) in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  if not terminated then
    note "end-of-trace marker missing (file truncated?)";
  let find kind = List.assoc_opt kind frames in
  let timing =
    match find "timing" with
    | Some p -> Some (Trace_io.parse_timing_payload p)
    | None -> None
  in
  let rank_frames =
    List.filter_map
      (fun (kind, payload) ->
        match Trace_io.rank_of_kind kind with
        | Some r when r >= 0 -> Some (r, payload)
        | _ -> None)
      frames
  in
  (* nranks: header frame, else the timing manifest, else the highest
     surviving rank index.  A checksum only proves a count was written:
     one larger than the file could hold (every rank costs at least one
     byte, a rank frame far more) is damage, and falls through to the
     next source. *)
  let plausible k = k > 0 && k <= String.length text in
  let highest_rank rs = 1 + List.fold_left (fun a (r, _) -> max a r) 0 rs in
  let header =
    match find "header" with
    | Some p -> (
        try Some (Trace_io.parse_header_payload p)
        with Trace_io.Format_error _ -> None)
    | None -> None
  in
  let infer () =
    let from_timing =
      match timing with
      | Some (_, per_rank) when per_rank <> [] -> Some (highest_rank per_rank)
      | _ -> None
    in
    match (from_timing, rank_frames) with
    | Some k, _ when plausible k -> Some k
    | _, (_ :: _ as rf) when plausible (highest_rank rf) -> Some (highest_rank rf)
    | _ -> None
  in
  let nranks, dropped =
    match header with
    | Some k when plausible k -> (Some k, dropped)
    | Some k ->
        note
          "header frame declares %d ranks, more than the file could hold; \
           inferring rank count"
          k;
        (infer (), dropped + 1)
    | None ->
        note "header frame lost; inferring rank count";
        (infer (), dropped)
  in
  match nranks with
  | None -> Error "unrecoverable: no header, timing, or rank frames survived"
  | Some nranks -> (
      let comms =
        match find "comms" with
        | Some p -> (
            try Trace_io.parse_comms_payload p
            with Trace_io.Format_error _ ->
              note "comms frame unreadable; assuming MPI_COMM_WORLD only";
              [ (0, Util.Rank_set.all nranks) ])
        | None ->
            note "comms frame lost; assuming MPI_COMM_WORLD only";
            [ (0, Util.Rank_set.all nranks) ]
      in
      let expected_for r =
        match timing with
        | Some (_, per_rank) -> List.assoc_opt r per_rank
        | None -> None
      in
      let ranks_missing = ref [] in
      let per_rank = ref [] in
      let streams =
        Array.init nranks (fun r ->
            match List.assoc_opt (Printf.sprintf "rank:%d" r) frames with
            | None ->
                ranks_missing := r :: !ranks_missing;
                per_rank :=
                  {
                    rr_rank = r;
                    rr_events = 0;
                    rr_events_lost = expected_for r;
                    rr_truncated = true;
                  }
                  :: !per_rank;
                []
            | Some payload ->
                let lines =
                  if String.trim payload = "" then []
                  else String.split_on_char '\n' payload
                in
                let nodes, truncated, err =
                  Trace_io.parse_nodes_prefix lines
                in
                (match err with
                | Some msg -> note "rank %d: %s" r msg
                | None -> ());
                let nodes, dropped_events = keep_known_comms ~comms nodes in
                if dropped_events > 0 then
                  note "rank %d: dropped %d events on unknown communicators"
                    r dropped_events;
                let events = Tnode.event_count nodes in
                let lost =
                  match expected_for r with
                  | Some expect -> Some (max 0 (expect - events))
                  | None -> if truncated then None else Some 0
                in
                per_rank :=
                  {
                    rr_rank = r;
                    rr_events = events;
                    rr_events_lost = lost;
                    rr_truncated = truncated || dropped_events > 0;
                  }
                  :: !per_rank;
                nodes)
      in
      if Array.for_all (fun s -> s = []) streams && dropped > 0 then
        Error "unrecoverable: no rank stream survived"
      else
        let trace = Trace_io.assemble ~nranks ~comms streams in
        Ok
          ( trace,
            {
              frames_seen = seen;
              frames_dropped = dropped;
              ranks_missing = List.rev !ranks_missing;
              per_rank = List.rev !per_rank;
              notes = List.rev !notes;
            } ))

let of_string text : outcome =
  if Trace_io.is_framed text then of_framed text
  else Error "unrecoverable: no recognizable trace magic"

let load ~path : outcome =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error (Printf.sprintf "io error: %s" msg)
