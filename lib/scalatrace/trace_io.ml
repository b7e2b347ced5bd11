exception Format_error of string

(* A grammar violation inside a section: the line (counted from the
   section's first line) and what is wrong there.  The reader records
   each one as an entry "line N: ..." of its damage list; [of_string]
   raises the first as [Format_error], prefixed with the file path. *)
exception Damage of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Damage (line, s))) fmt

(* ------------------------------------------------------------------ *)
(* Writing                                                              *)

let kind_to_string (k : Event.kind) =
  match k with
  | Event.E_waitall n -> Printf.sprintf "MPI_Waitall:%d" n
  | k -> Event.kind_name k

let kind_of_string line s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "MPI_Waitall" ->
      let n =
        try int_of_string (String.sub s (i + 1) (String.length s - i - 1))
        with Failure _ -> fail line "bad waitall width in %S" s
      in
      Event.E_waitall n
  | _ -> (
      match s with
      | "MPI_Send" -> Event.E_send
      | "MPI_Isend" -> Event.E_isend
      | "MPI_Recv" -> Event.E_recv
      | "MPI_Irecv" -> Event.E_irecv
      | "MPI_Wait" -> Event.E_wait
      | "MPI_Barrier" -> Event.E_barrier
      | "MPI_Bcast" -> Event.E_bcast
      | "MPI_Reduce" -> Event.E_reduce
      | "MPI_Allreduce" -> Event.E_allreduce
      | "MPI_Gather" -> Event.E_gather
      | "MPI_Gatherv" -> Event.E_gatherv
      | "MPI_Allgather" -> Event.E_allgather
      | "MPI_Allgatherv" -> Event.E_allgatherv
      | "MPI_Scatter" -> Event.E_scatter
      | "MPI_Scatterv" -> Event.E_scatterv
      | "MPI_Alltoall" -> Event.E_alltoall
      | "MPI_Alltoallv" -> Event.E_alltoallv
      | "MPI_Reduce_scatter" -> Event.E_reduce_scatter
      | "MPI_Neighbor_alltoall" -> Event.E_neighbor_alltoall
      | "MPI_Neighbor_allgather" -> Event.E_neighbor_allgather
      | "MPI_Comm_split" -> Event.E_comm_split
      | "MPI_Comm_dup" -> Event.E_comm_dup
      | "MPI_Finalize" -> Event.E_finalize
      | s -> fail line "unknown operation %S" s)

let peer_to_string (p : Event.peer) =
  match p with
  | Event.P_none -> "none"
  | Event.P_any -> "any"
  | Event.P_abs a -> Printf.sprintf "abs:%d" a
  | Event.P_rel d -> Printf.sprintf "rel:%d" d
  | Event.P_map m ->
      "map:"
      ^ String.concat ","
          (List.map (fun (r, p) -> Printf.sprintf "%d>%d" r p) m)

let peer_of_string line s =
  let num tail = try int_of_string tail with Failure _ -> fail line "bad peer %S" s in
  match String.index_opt s ':' with
  | None -> (
      match s with
      | "none" -> Event.P_none
      | "any" -> Event.P_any
      | _ -> fail line "bad peer %S" s)
  | Some i -> (
      let head = String.sub s 0 i
      and tail = String.sub s (i + 1) (String.length s - i - 1) in
      match head with
      | "abs" -> Event.P_abs (num tail)
      | "rel" -> Event.P_rel (num tail)
      | "map" ->
          let entries =
            if tail = "" then []
            else
              List.map
                (fun pair ->
                  match String.index_opt pair '>' with
                  | Some j ->
                      let r = String.sub pair 0 j in
                      let p = String.sub pair (j + 1) (String.length pair - j - 1) in
                      (num r, num p)
                  | None -> fail line "bad peer map entry %S" pair)
                (String.split_on_char ',' tail)
          in
          Event.P_map entries
      | _ -> fail line "bad peer %S" s)

let ranks_to_string set =
  String.concat ","
    (List.map
       (fun (first, last, stride) -> Printf.sprintf "%d:%d:%d" first last stride)
       (Util.Rank_set.intervals set))

let ranks_of_string line s =
  if s = "" then Util.Rank_set.empty
  else
    List.fold_left
      (fun acc part ->
        match String.split_on_char ':' part with
        | [ f; l; st ] -> (
            try
              Util.Rank_set.union acc
                (Util.Rank_set.range ~stride:(int_of_string st) (int_of_string f)
                   (int_of_string l))
            with Failure _ | Invalid_argument _ -> fail line "bad rank interval %S" part)
        | _ -> fail line "bad rank interval %S" part)
      Util.Rank_set.empty (String.split_on_char ',' s)

let vec_to_string = function
  | None -> "-"
  | Some v -> String.concat "," (Array.to_list (Array.map string_of_int v))

let vec_of_string line = function
  | "-" -> None
  | s -> (
      try Some (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
      with Failure _ -> fail line "bad size vector %S" s)

let event_to_line (e : Event.t) =
  (* [parts=] is emitted only for partial participant sets, so every
     trace written before neighborhood collectives existed reproduces
     byte-identically. *)
  let parts_field =
    match e.parts with
    | None -> ""
    | Some ps -> " parts=" ^ vec_to_string (Some ps)
  in
  Printf.sprintf "event %s peer=%s bytes=%d vec=%s tag=%d comm=%d ranks=%s dt=%d;%.17g;%.17g;%.17g;%.17g%s site=%s"
    (kind_to_string e.kind) (peer_to_string e.peer) e.bytes (vec_to_string e.vec)
    e.tag e.comm (ranks_to_string e.ranks)
    (Util.Histogram.count e.dtime) (Util.Histogram.sum e.dtime)
    (Util.Histogram.min_value e.dtime) (Util.Histogram.max_value e.dtime)
    (Util.Histogram.first_sample e.dtime)
    parts_field
    (Util.Callsite.encode e.site)

let add_nodes buf depth ns =
  let rec go depth ns =
    List.iter
      (fun n ->
        let indent = String.make (2 * depth) ' ' in
        match n with
        | Tnode.Leaf e ->
            Buffer.add_string buf indent;
            Buffer.add_string buf (event_to_line e);
            Buffer.add_char buf '\n'
        | Tnode.Loop { count; body; _ } ->
            Buffer.add_string buf (Printf.sprintf "%sloop %d\n" indent count);
            go (depth + 1) body;
            Buffer.add_string buf (indent ^ "end\n"))
      ns
  in
  go depth ns

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)

(* "key=value" fields separated by single spaces; values contain no
   spaces except the trailing site=, which runs to end of line. *)
let parse_event lineno rest =
  let site_marker = " site=" in
  let site_pos =
    let n = String.length rest and m = String.length site_marker in
    let rec go i =
      if i + m > n then fail lineno "missing site field"
      else if String.sub rest i m = site_marker then i
      else go (i + 1)
    in
    go 0
  in
  let head = String.sub rest 0 site_pos in
  let site_str =
    String.sub rest
      (site_pos + String.length site_marker)
      (String.length rest - site_pos - String.length site_marker)
  in
  let site =
    try Util.Callsite.decode site_str
    with Invalid_argument _ -> fail lineno "bad site %S" site_str
  in
  match String.split_on_char ' ' head with
  | kind_s :: fields ->
      let kind = kind_of_string lineno kind_s in
      let get key =
        let prefix = key ^ "=" in
        match
          List.find_opt
            (fun f ->
              String.length f >= String.length prefix
              && String.sub f 0 (String.length prefix) = prefix)
            fields
        with
        | Some f ->
            String.sub f (String.length prefix) (String.length f - String.length prefix)
        | None -> fail lineno "missing field %s" key
      in
      let get_opt key =
        let prefix = key ^ "=" in
        Option.map
          (fun f ->
            String.sub f (String.length prefix)
              (String.length f - String.length prefix))
          (List.find_opt
             (fun f ->
               String.length f >= String.length prefix
               && String.sub f 0 (String.length prefix) = prefix)
             fields)
      in
      let int_field key =
        try int_of_string (get key) with Failure _ -> fail lineno "bad %s" key
      in
      let dt =
        match String.split_on_char ';' (get "dt") with
        | [ c; s; mn; mx; fs ] -> (
            try
              Util.Histogram.of_stats ~count:(int_of_string c)
                ~sum:(float_of_string s) ~min:(float_of_string mn)
                ~max:(float_of_string mx) ~first:(float_of_string fs)
            with Failure _ -> fail lineno "bad dt field")
        | _ -> fail lineno "bad dt field"
      in
      {
        Event.site;
        kind;
        peer = peer_of_string lineno (get "peer");
        bytes = int_field "bytes";
        vec = vec_of_string lineno (get "vec");
        tag = int_field "tag";
        comm = int_field "comm";
        parts =
          (match get_opt "parts" with
          | None -> None
          | Some s -> vec_of_string lineno s);
        dtime = dt;
        ranks = ranks_of_string lineno (get "ranks");
        hcache = 0;
      }
  | [] -> fail lineno "empty event"


(* ------------------------------------------------------------------ *)
(* Framed format v2                                                     *)

(* Container layout (text-friendly, binary-safe):

     scalatrace-frames 2\n
     frame <kind> <len> <crc32-hex8>\n
     <len payload bytes>\n
     ...
     frame end 0 00000000\n

   Kinds: [header] (nranks), [comms] (communicator table), [rank:<r>]
   (rank r's RSD stream, singleton participant sets, concrete peers,
   timing on the lowest participating rank only), [timing] (per-rank
   event-count manifest).  Each frame's CRC-32 covers exactly its
   payload bytes, so corruption is localized to one section: a flipped
   byte invalidates one frame, a truncation costs the tail — which is
   what lets the reader recover every intact section. *)

let magic = "scalatrace-frames 2"

let frame_header ~kind ~payload =
  Printf.sprintf "frame %s %d %s" kind (String.length payload)
    (Util.Crc32.to_hex (Util.Crc32.string payload))

(* Rank [rank]'s serializable stream: its projection with participant
   sets narrowed to the singleton and generalized peers resolved to the
   concrete value — the same shape the tracer's per-rank collectors
   produce, which is what lets the loader re-merge streams with the
   production {!Merge} path.  Compute-time summaries ride on the lowest
   participating rank only ("owner"), so re-merging does not double-count
   timing. *)
let rank_stream trace ~rank =
  let nranks = Trace.nranks trace in
  Tnode.map_leaves
    (fun (e : Event.t) ->
      let owner = Util.Rank_set.min_elt e.ranks = Some rank in
      let e' = Event.copy e in
      e'.Event.ranks <- Util.Rank_set.singleton rank;
      (match e'.Event.peer with
      | Event.P_map _ | Event.P_rel _ -> (
          match Event.peer_of e ~rank ~nranks with
          | Some p -> e'.Event.peer <- Event.P_abs p
          | None -> e'.Event.peer <- Event.P_none)
      | Event.P_none | Event.P_any | Event.P_abs _ -> ());
      if not owner then
        { e' with Event.dtime = Util.Histogram.create (); hcache = 0 }
      else e')
    (Trace.project trace ~rank)

let to_framed trace =
  let buf = Buffer.create 8192 in
  let frame kind payload =
    Buffer.add_string buf (frame_header ~kind ~payload);
    Buffer.add_char buf '\n';
    Buffer.add_string buf payload;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  let nranks = Trace.nranks trace in
  frame "header" (Printf.sprintf "nranks %d" nranks);
  frame "comms"
    (String.concat "\n"
       (List.map
          (fun (id, members) ->
            Printf.sprintf "comm %d %s" id (ranks_to_string members))
          (Trace.comms trace)));
  let manifest = Buffer.create 256 in
  Buffer.add_string manifest
    (Printf.sprintf "events %d" (Trace.event_count trace));
  for rank = 0 to nranks - 1 do
    let stream = rank_stream trace ~rank in
    let b = Buffer.create 1024 in
    add_nodes b 0 stream;
    (* payloads carry no trailing newline; the container adds the separator *)
    let payload =
      let s = Buffer.contents b in
      let n = String.length s in
      if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s
    in
    frame (Printf.sprintf "rank:%d" rank) payload;
    Buffer.add_string manifest
      (Printf.sprintf "\nrank %d %d" rank (Tnode.event_count stream))
  done;
  frame "timing" (Buffer.contents manifest);
  Buffer.add_string buf "frame end 0 00000000\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The reader                                                           *)

(* There is one reader.  It never raises: it scans the container with
   resynchronization (a frame whose header is garbled or whose checksum
   fails is dropped; scanning resumes at the next line starting with
   "frame "), rebuilds a trace from whatever sections survived, and
   records every defect it meets as damage.  Rank streams are cut to
   their longest well-formed prefix; missing sections are reconstructed
   from redundant ones (nranks from the timing manifest or the
   rank-frame indices, the communicator table defaults to
   MPI_COMM_WORLD).  Strict loading is the verdict "no damage". *)

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
  damage : string list;
}

type unrecoverable = { reason : string; damage : string list }
type outcome = (Trace.t * report, unrecoverable) result

let is_degraded (r : report) = r.damage <> []

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
          (Printf.sprintf "\n  rank %d: %d events recovered%s (stream truncated)"
             rr.rr_rank rr.rr_events
             (match rr.rr_events_lost with
             | Some l -> Printf.sprintf ", %d lost" l
             | None -> ", losses unknown")))
    r.per_rank;
  List.iter (fun n -> Buffer.add_string b ("\n  note: " ^ n)) r.notes;
  Buffer.add_char b '\n';
  Buffer.contents b

(* One rank frame's node stream, cut to its longest well-formed prefix
   (open loops at the cut are dropped wholesale: their counts and bodies
   are not trustworthy).  An event on a communicator outside [known] is
   a defect of the stream, which is cut there — unless [drop_unknown]
   (the communicator table itself was lost and [known] is a guess): then
   the event is dropped where it stands, with any loop the drop leaves
   empty, on every rank alike.  Either way clean input builds its node
   lists once. *)
type stream = {
  nodes : Tnode.t list;
  error : (int * string) option;  (** where and why the stream was cut *)
  dropped : int;  (** events dropped under [drop_unknown] *)
}

let parse_stream ~known ~drop_unknown payload =
  let cur = ref [] and opened = ref [] and dropped = ref 0 in
  let step lineno line =
    match String.index_opt line ' ' with
    | None when line = "end" -> (
        match !opened with
        | (count, dropped_before, outer) :: rest ->
            opened := rest;
            let body = List.rev !cur in
            cur :=
              if body = [] && !dropped > dropped_before then outer
              else Tnode.loop ~count body :: outer
        | [] -> fail lineno "unmatched end")
    | None -> fail lineno "cannot parse %S" line
    | Some sp -> (
        let word = String.sub line 0 sp in
        let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
        match word with
        | "loop" ->
            let count =
              try int_of_string rest with Failure _ -> fail lineno "bad loop count"
            in
            opened := (count, !dropped, !cur) :: !opened;
            cur := []
        | "event" ->
            let e = parse_event lineno rest in
            if List.mem e.Event.comm known then cur := Tnode.Leaf e :: !cur
            else if drop_unknown then incr dropped
            else fail lineno "event on undeclared communicator %d" e.Event.comm
        | _ -> fail lineno "unknown directive %S" word)
  in
  let lines = String.split_on_char '\n' payload in
  let rec go i = function
    | [] ->
        if !opened = [] then None
        else Some (List.length lines, "unterminated loop at end of input")
    | raw :: rest -> (
        let line = String.trim raw in
        match if line <> "" then step i line with
        | () -> go (i + 1) rest
        | exception Damage (l, what) -> Some (l, what))
  in
  let error = go 1 lines in
  let nodes =
    match List.rev !opened with
    | [] -> List.rev !cur
    | (_, dropped_before, outer) :: _ ->
        dropped := dropped_before;
        List.rev outer
  in
  { nodes; error; dropped = !dropped }

let is_framed text =
  String.length text >= String.length magic
  && String.sub text 0 (String.length magic) = magic

type scan = {
  frames : (string * string) list;  (** intact (kind, payload), file order *)
  seen : int;
  dropped : int;
  terminated : bool;  (** the end-of-trace frame was reached *)
}

(* One pass over the container after the magic line.  [damaged line what]
   hears every defect in file order; line numbers are exact up to the
   first defect and approximate after a resynchronization. *)
let scan_frames ~damaged text =
  let n = String.length text in
  let line_end p =
    match String.index_from_opt text p '\n' with Some i -> i | None -> n
  in
  (* Line of byte [p], counted only when damage needs it.  Positions only
     grow during the scan; one past the end is the line after the last
     (a frame whose separator the end of file cut off). *)
  let counted = ref 0 and line = ref 1 in
  let line_of p =
    for i = !counted to min p n - 1 do
      if text.[i] = '\n' then incr line
    done;
    counted := max !counted (min p n);
    if p > n then !line + 1 else !line
  in
  let damaged p fmt = Printf.ksprintf (damaged (line_of p)) fmt in
  let is_frame_line p = p + 6 <= n && String.sub text p 6 = "frame " in
  let rec resync p =
    if p >= n || is_frame_line p then p
    else match String.index_from_opt text p '\n' with
      | Some nl -> resync (nl + 1)
      | None -> n
  in
  let frames = ref [] and seen = ref 0 and dropped = ref 0 in
  let rec next pos =
    if pos >= n then (
      damaged pos "missing end frame";
      false)
    else
      let e = line_end pos in
      let header = String.sub text pos (e - pos) in
      let garbled () =
        damaged pos "bad frame header %S" header;
        next (resync (e + 1))
      in
      if not (is_frame_line pos) then garbled ()
      else
        match String.split_on_char ' ' header with
        | [ "frame"; "end"; "0"; _ ] -> true
        | [ "frame"; kind; len_s; crc_s ] -> (
            incr seen;
            match (int_of_string_opt len_s, Util.Crc32.of_hex crc_s) with
            | Some len, Some crc when len >= 0 && e + 1 + len <= n ->
                let payload = String.sub text (e + 1) len in
                if Util.Crc32.string payload = crc then
                  frames := (kind, payload) :: !frames
                else (
                  incr dropped;
                  damaged pos "frame %s: checksum mismatch" kind);
                if e + 1 + len < n && text.[e + 1 + len] <> '\n' then
                  damaged pos "frame %s: missing separator" kind;
                (* the length tells where the next header starts even
                   when the payload is damaged *)
                next (e + 1 + len + 1)
            | Some len, Some _ ->
                incr dropped;
                damaged pos "frame %s: truncated payload" kind;
                (* a sane length running past the end is a cut file *)
                if len >= 0 then next n else next (resync (e + 1))
            | _ ->
                incr dropped;
                garbled ())
        | _ ->
            incr dropped;
            garbled ()
  in
  let terminated = next (line_end 0 + 1) in
  { frames = List.rev !frames; seen = !seen; dropped = !dropped; terminated }

let parse_header_payload payload =
  match String.split_on_char ' ' (String.trim payload) with
  | [ "nranks"; v ] -> (
      match int_of_string_opt v with
      | Some k when k > 0 -> k
      | _ -> fail 1 "bad nranks in header frame")
  | _ -> fail 1 "bad header frame"

let parse_comms_payload payload =
  List.filter_map
    (fun raw ->
      let line = String.trim raw in
      if line = "" then None
      else
        match String.split_on_char ' ' line with
        | [ "comm"; id; members ] -> (
            match int_of_string_opt id with
            | Some id -> Some (id, ranks_of_string 1 members)
            | None -> fail 1 "bad comm id in comms frame")
        | _ -> fail 1 "bad comms frame line %S" line)
    (String.split_on_char '\n' payload)

(* Best-effort read of the manifest: total event count and per-rank
   expected event counts. *)
let parse_timing_payload payload =
  let events = ref None and per_rank = ref [] in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      match String.split_on_char ' ' line with
      | [ "events"; v ] -> events := int_of_string_opt v
      | [ "rank"; r; c ] -> (
          match (int_of_string_opt r, int_of_string_opt c) with
          | Some r, Some c -> per_rank := (r, c) :: !per_rank
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' payload);
  (!events, List.rev !per_rank)

let rank_of_kind kind =
  if String.starts_with ~prefix:"rank:" kind then
    int_of_string_opt (String.sub kind 5 (String.length kind - 5))
  else None

(* Damage is recorded in the order the checks run: container defects in
   file order, then the header, the communicator table, the rank-frame
   count, each rank stream in rank order, and last the timing manifest.
   That order makes the first damage the error a loader that stops at
   the first defect would report. *)
let read text : outcome =
  let damage = ref [] and notes = ref [] in
  let damaged line fmt =
    Printf.ksprintf
      (fun s -> damage := Printf.sprintf "line %d: %s" line s :: !damage)
      fmt
  in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let unrecoverable reason = Error { reason; damage = List.rev !damage } in
  if not (is_framed text) then (
    damaged 1 "not a scalatrace trace (bad magic %S)"
      (String.trim
         (match String.index_opt text '\n' with
         | Some i -> String.sub text 0 i
         | None -> text));
    unrecoverable "unrecoverable: no recognizable trace magic")
  else
    let { frames; seen; dropped; terminated } =
      scan_frames ~damaged:(fun line s -> damaged line "%s" s) text
    in
    (* A missing terminator is lost data even when every surviving frame
       is intact (e.g. a cut right before the timing frame): count it as
       one dropped frame so the report registers the damage. *)
    let seen, dropped =
      if terminated then (seen, dropped) else (seen + 1, dropped + 1)
    in
    if not terminated then note "end-of-trace marker missing (file truncated?)";
    (* the first frame of each kind counts *)
    let index = Hashtbl.create 64 in
    List.iter
      (fun (kind, payload) ->
        if not (Hashtbl.mem index kind) then Hashtbl.add index kind payload)
      frames;
    let find = Hashtbl.find_opt index in
    let section kind parse =
      match find kind with
      | None ->
          damaged 1 "missing %s frame" kind;
          None
      | Some p -> (
          match parse p with
          | v -> Some v
          | exception Damage (line, what) ->
              damaged line "%s" what;
              None)
    in
    let header = section "header" parse_header_payload in
    let comms = section "comms" parse_comms_payload in
    let rank_frames =
      List.filter_map
        (fun (kind, payload) ->
          match rank_of_kind kind with
          | Some r when r >= 0 -> Some (r, payload)
          | _ -> None)
        frames
    in
    (* The header checksum only proves the count was written, not that
       it matches the rank frames present. *)
    (let present =
       List.length
         (List.filter (fun (kind, _) -> String.starts_with ~prefix:"rank:" kind) frames)
     in
     match header with
     | Some k when k <> present ->
         damaged 1 "header declares %d ranks but the file has %d rank frames" k
           present
     | _ -> ());
    let timing = Option.map parse_timing_payload (find "timing") in
    (* nranks: header frame, else the timing manifest, else the highest
       surviving rank index.  A count larger than the file could hold
       (every rank costs at least one byte, a rank frame far more) is
       damage, and falls through to the next source. *)
    let plausible k = k > 0 && k <= String.length text in
    let highest_rank rs = 1 + List.fold_left (fun a (r, _) -> max a r) 0 rs in
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
    | None -> unrecoverable "unrecoverable: no header, timing, or rank frames survived"
    | Some nranks ->
        let comms, drop_unknown =
          match comms with
          | Some c -> (c, false)
          | None ->
              note "comms frame %s; assuming MPI_COMM_WORLD only"
                (if find "comms" = None then "lost" else "unreadable");
              ([ (0, Util.Rank_set.all nranks) ], true)
        in
        let known = List.map fst comms in
        let expected_for r =
          Option.bind timing (fun (_, per_rank) -> List.assoc_opt r per_rank)
        in
        let ranks_missing = ref [] and per_rank = ref [] in
        let streams =
          Array.init nranks (fun r ->
              match find (Printf.sprintf "rank:%d" r) with
              | None ->
                  damaged 1 "missing frame for rank %d" r;
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
                  let s = parse_stream ~known ~drop_unknown payload in
                  Option.iter
                    (fun (line, what) ->
                      damaged line "%s" what;
                      note "rank %d: line %d: %s" r line what)
                    s.error;
                  if s.dropped > 0 then
                    note "rank %d: dropped %d events on unknown communicators" r
                      s.dropped;
                  let events = Tnode.event_count s.nodes in
                  let cut = s.error <> None in
                  per_rank :=
                    {
                      rr_rank = r;
                      rr_events = events;
                      rr_events_lost =
                        (match expected_for r with
                        | Some expect -> Some (max 0 (expect - events))
                        | None -> if cut then None else Some 0);
                      rr_truncated = cut || s.dropped > 0;
                    }
                    :: !per_rank;
                  s.nodes)
        in
        if Array.for_all (fun s -> s = []) streams && dropped > 0 then
          unrecoverable "unrecoverable: no rank stream survived"
        else
          let trace = Merge.merge ~nranks ~comms streams in
          (match timing with
          | None -> damaged 1 "missing timing frame"
          | Some (events, per_rank) ->
              let loaded = Trace.event_count trace in
              (match events with
              | Some expect when expect <> loaded ->
                  damaged 1 "event-count manifest mismatch (%d recorded, %d loaded)"
                    expect loaded
              | _ -> ());
              List.iter
                (fun (r, expect) ->
                  if r >= 0 && r < nranks then
                    let got = Tnode.event_count_for (Trace.nodes trace) ~rank:r in
                    if got <> expect then
                      damaged 1
                        "rank %d event-count manifest mismatch (%d recorded, %d \
                         loaded)"
                        r expect got)
                per_rank);
          let per_rank = List.rev !per_rank and damage = List.rev !damage in
          (* Damage the frame, rank and truncation lines cannot show (a
             missing separator, a manifest edit, ...) is listed as notes,
             so a degraded report never reads as intact. *)
          let shown =
            dropped > 0 || !ranks_missing <> []
            || List.exists (fun rr -> rr.rr_truncated) per_rank
          in
          Ok
            ( trace,
              {
                frames_seen = seen;
                frames_dropped = dropped;
                ranks_missing = List.rev !ranks_missing;
                per_rank;
                notes = List.rev !notes @ (if shown then [] else damage);
                damage;
              } )

let of_string ?path text =
  let raise_first first =
    raise
      (Format_error
         (match path with None -> first | Some p -> p ^ ": " ^ first))
  in
  match read text with
  | Ok (trace, { damage = []; _ }) -> trace
  | Ok (_, { damage = first :: _; _ }) | Error { damage = first :: _; _ } ->
      raise_first first
  | Error { reason; damage = [] } -> raise_first reason

(* ------------------------------------------------------------------ *)
(* Files                                                                *)

let save trace ~path =
  let text = to_framed trace in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc text)

let load ~path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  of_string ~path text
