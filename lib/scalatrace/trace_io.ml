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

let add_peer buf (p : Event.peer) =
  match p with
  | Event.P_none -> Buffer.add_string buf "none"
  | Event.P_any -> Buffer.add_string buf "any"
  | Event.P_abs a ->
      Buffer.add_string buf "abs:";
      Buffer.add_string buf (string_of_int a)
  | Event.P_rel d ->
      Buffer.add_string buf "rel:";
      Buffer.add_string buf (string_of_int d)
  | Event.P_map m ->
      Buffer.add_string buf "map:";
      List.iteri
        (fun i (r, p) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int r);
          Buffer.add_char buf '>';
          Buffer.add_string buf (string_of_int p))
        m

(* The "r>p,r>p,..." entries of [s] from byte [i]: a map peer lists
   every rank, so this scans digits in place rather than splitting. *)
let map_of_string line s i =
  let n = String.length s in
  let bad () = fail line "bad peer %S" s in
  let int i =
    let neg = i < n && s.[i] = '-' in
    let start = if neg then i + 1 else i in
    let j = ref start and v = ref 0 in
    while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do
      v := (!v * 10) + Char.code s.[!j] - 48;
      incr j
    done;
    if !j = start || !j - start > 18 then bad ();
    ((if neg then - !v else !v), !j)
  in
  let rec entries i acc =
    let r, i = int i in
    if i >= n || s.[i] <> '>' then bad ();
    let p, i = int (i + 1) in
    if i = n then List.rev ((r, p) :: acc)
    else if s.[i] = ',' then entries (i + 1) ((r, p) :: acc)
    else bad ()
  in
  if i = n then [] else entries i []

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
      | "map" -> Event.P_map (map_of_string line s (i + 1))
      | _ -> fail line "bad peer %S" s)

let ranks_to_string set =
  String.concat ","
    (List.map
       (fun (first, last, stride) -> Printf.sprintf "%d:%d:%d" first last stride)
       (Util.Rank_set.intervals set))

(* Intervals are written ascending, so the set is rebuilt in time and
   space linear in the intervals, never in the ranks they cover. *)
let ranks_of_string line s =
  if s = "" then Util.Rank_set.empty
  else
    let interval part =
      match List.map int_of_string_opt (String.split_on_char ':' part) with
      | [ Some f; Some l; Some st ] when f >= 0 && f <= l && st > 0 -> (f, l, st)
      | _ -> fail line "bad rank interval %S" part
    in
    try Util.Rank_set.of_intervals (List.map interval (String.split_on_char ',' s))
    with Invalid_argument _ -> fail line "rank intervals out of order in %S" s

let vec_to_string = function
  | None -> "-"
  | Some v -> String.concat "," (Array.to_list (Array.map string_of_int v))

let vec_of_string line = function
  | "-" -> None
  | s -> (
      try Some (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
      with Failure _ -> fail line "bad size vector %S" s)

let add_event buf (e : Event.t) =
  let field key = Buffer.add_char buf ' '; Buffer.add_string buf key in
  Buffer.add_string buf "event ";
  Buffer.add_string buf (kind_to_string e.kind);
  field "peer=";
  add_peer buf e.peer;
  field "bytes=";
  Buffer.add_string buf (string_of_int e.bytes);
  field "vec=";
  Buffer.add_string buf (vec_to_string e.vec);
  field "tag=";
  Buffer.add_string buf (string_of_int e.tag);
  field "comm=";
  Buffer.add_string buf (string_of_int e.comm);
  field "ranks=";
  Buffer.add_string buf (ranks_to_string e.ranks);
  Buffer.add_string buf
    (Printf.sprintf " dt=%d;%.17g;%.17g;%.17g;%.17g"
       (Util.Histogram.count e.dtime) (Util.Histogram.sum e.dtime)
       (Util.Histogram.min_value e.dtime) (Util.Histogram.max_value e.dtime)
       (Util.Histogram.first_sample e.dtime));
  (* [parts=] is emitted only for partial participant sets *)
  Option.iter
    (fun ps ->
      field "parts=";
      Buffer.add_string buf (vec_to_string (Some ps)))
    e.parts;
  field "site=";
  Buffer.add_string buf (Util.Callsite.encode e.site)

(* Write [node] at [depth]; returns the number of lines written. *)
let rec add_node buf depth node =
  let indent = String.make (2 * depth) ' ' in
  match node with
  | Tnode.Leaf e ->
      Buffer.add_string buf indent;
      add_event buf e;
      Buffer.add_char buf '\n';
      1
  | Tnode.Loop { count; body; _ } ->
      Buffer.add_string buf (Printf.sprintf "%sloop %d\n" indent count);
      let lines = List.fold_left (fun n b -> n + add_node buf (depth + 1) b) 2 body in
      Buffer.add_string buf (indent ^ "end\n");
      lines

(* ------------------------------------------------------------------ *)
(* Reading                                                              *)

(* "key=value" fields separated by single spaces; values contain no
   spaces except the trailing site=, which runs to end of line. *)
let parse_event lineno rest =
  let site_marker = " site=" in
  let site_pos =
    let n = String.length rest and m = String.length site_marker in
    let rec matches i j = j = m || (rest.[i + j] = site_marker.[j] && matches i (j + 1)) in
    let rec go i =
      if i + m > n then fail lineno "missing site field"
      else if matches i 0 then i
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
      let fields =
        List.filter_map
          (fun f ->
            Option.map
              (fun i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
              (String.index_opt f '='))
          fields
      in
      let get_opt key = List.assoc_opt key fields in
      let get key =
        match get_opt key with Some v -> v | None -> fail lineno "missing field %s" key
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
(* Per-rank event counts                                                *)

(* What the timing manifest says about one rank. *)
type listing = Listed of int | Unlisted | Listed_twice

(* The event count of every rank in [0, nranks) for [nodes], next to the
   count [expect] lists for it ((count, ranks) pairs), as groups of ranks
   sharing both — interval-coded, in ascending order of their lowest
   rank.  The ranks are swept segment by segment between the endpoints
   of every interval in the tree and the manifest.  A segment no strided
   interval crosses has one count for all its ranks, so the sweep visits
   ranks one by one only where strided rank sets interleave.  What it
   builds is sized by the intervals, never by [nranks] itself. *)
let tally ~nranks nodes ~expect =
  let flat = ref [] and strided = ref [] in
  let rec walk mult = function
    | Tnode.Leaf e ->
        List.iter
          (fun (f, l, st) ->
            if f = l || st = 1 then flat := (f, mult) :: (l + 1, -mult) :: !flat
            else strided := (f, l, st, mult) :: !strided)
          (Util.Rank_set.intervals e.Event.ranks)
    | Tnode.Loop { count; body; _ } -> List.iter (walk (mult * count)) body
  in
  List.iter (walk 1) nodes;
  let listed =
    List.concat_map
      (fun (c, set) ->
        List.map (fun (f, l, st) -> (f, l, st, c)) (Util.Rank_set.intervals set))
      expect
  in
  let by_first (a, _, _, _) (b, _, _, _) = compare a b in
  let flat = Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) !flat)
  and strided = Array.of_list (List.sort by_first !strided)
  and listed = Array.of_list (List.sort by_first listed) in
  let bounds =
    List.sort_uniq compare
      (List.filter
         (fun p -> p >= 0 && p <= nranks)
         (0 :: nranks
          :: (Array.to_list (Array.map fst flat)
             @ List.concat_map
                 (fun (f, l, _, _) -> [ f; l + 1 ])
                 (Array.to_list strided @ Array.to_list listed))))
  in
  let groups = Hashtbl.create 8 and order = ref [] in
  let add key iv =
    let b =
      match Hashtbl.find_opt groups key with
      | Some b -> b
      | None ->
          let b = Util.Rank_set.builder () in
          Hashtbl.add groups key b;
          order := key :: !order;
          b
    in
    Util.Rank_set.push b iv
  in
  let mem r (f, l, st, _) = r >= f && r <= l && (r - f) mod st = 0 in
  (* [active spans next a] admits the spans starting by [a] and retires
     those ending before it *)
  let active spans next a live =
    let live = ref live in
    let first (f, _, _, _) = f in
    while !next < Array.length spans && first spans.(!next) <= a do
      live := spans.(!next) :: !live;
      incr next
    done;
    List.filter (fun (_, l, _, _) -> l >= a) !live
  in
  let fi = ref 0 and sum = ref 0 and si = ref 0 and li = ref 0 in
  let rec sweep live_s live_l = function
    | a :: (b :: _ as rest) ->
        while !fi < Array.length flat && fst flat.(!fi) <= a do
          sum := !sum + snd flat.(!fi);
          incr fi
        done;
        let live_s = active strided si a live_s and live_l = active listed li a live_l in
        let key r =
          let count =
            List.fold_left
              (fun acc ((_, _, _, w) as sp) -> if mem r sp then acc + w else acc)
              !sum live_s
          in
          ( count,
            match List.filter (mem r) live_l with
            | [] -> Unlisted
            | [ (_, _, _, c) ] -> Listed c
            | _ -> Listed_twice )
        in
        if b - a = 1 || (live_s = [] && List.for_all (fun (_, _, st, _) -> st = 1) live_l)
        then add (key a) (a, b - 1, 1)
        else
          for r = a to b - 1 do
            add (key r) (r, r, 1)
          done;
        sweep live_s live_l rest
    | _ -> ()
  in
  sweep [] [] bounds;
  List.rev_map (fun key -> (key, Util.Rank_set.build (Hashtbl.find groups key))) !order

(* ------------------------------------------------------------------ *)
(* Framed format v3                                                     *)

(* Container layout (text-friendly, binary-safe):

     scalatrace-frames 3\n
     frame <kind> <len> <crc32-hex8>\n
     <len payload bytes>\n
     ...
     frame end 0 00000000\n

   Kinds, in file order: [header] (nranks), [comms] (communicator
   table), [chunk:0], [chunk:1], ... (the merged trace's top-level
   nodes, in order, with their rank sets and generalized peers), and
   [timing] (the manifest: the event total, the chunk count, and every
   rank's event count as rank intervals grouped by count).  Each frame's
   CRC-32 covers exactly its payload bytes, so corruption is localized
   to one frame: a flipped byte invalidates one chunk, a truncation
   costs the tail — and since chunks hold consecutive nodes of the one
   merged trace, what survives before the first lost chunk is a prefix
   of every rank's events. *)

let version = 3
let magic = Printf.sprintf "scalatrace-frames %d" version

(* A chunk frame closes at the first top-level node boundary after this
   many lines. *)
let chunk_lines = 4

(* The largest rank count a file may declare.  The merged trace stays
   nearly the same size whatever the rank count (an EP trace at 1024
   ranks is ~800 bytes), so a count cannot be checked against the file
   size; above this ceiling it is damage.  The reader sizes nothing by
   the count itself: per-rank state follows the rank sets the file
   spells out. *)
let max_ranks = 1 lsl 20

let frame_header ~kind ~payload =
  Printf.sprintf "frame %s %d %s" kind (String.length payload)
    (Util.Crc32.to_hex (Util.Crc32.string payload))

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
  let chunk = Buffer.create 4096 and lines = ref 0 and chunks = ref 0 in
  let flush () =
    if !lines > 0 then (
      (* payloads carry no trailing newline; the container adds the separator *)
      frame
        (Printf.sprintf "chunk:%d" !chunks)
        (Buffer.sub chunk 0 (Buffer.length chunk - 1));
      Buffer.clear chunk;
      lines := 0;
      incr chunks)
  in
  List.iter
    (fun node ->
      lines := !lines + add_node chunk 0 node;
      if !lines >= chunk_lines then flush ())
    (Trace.nodes trace);
  flush ();
  frame "timing"
    (String.concat "\n"
       (Printf.sprintf "events %d" (Trace.event_count trace)
       :: Printf.sprintf "chunks %d" !chunks
       :: List.map
            (fun ((count, _), ranks) ->
              Printf.sprintf "count %d %s" count (ranks_to_string ranks))
            (tally ~nranks (Trace.nodes trace) ~expect:[])));
  Buffer.add_string buf "frame end 0 00000000\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The reader                                                           *)

(* There is one reader.  It never raises: it scans the container with
   resynchronization (a frame whose header is garbled or whose checksum
   fails is dropped; scanning resumes at the next line starting with
   "frame "), loads the chunks in order up to the first one lost or
   malformed, and records every defect it meets as damage.  Missing
   sections are reconstructed from redundant ones (nranks from the
   manifest or the communicator table, the communicator table defaults
   to MPI_COMM_WORLD).  Strict loading is the verdict "no damage". *)

type rank_recovery = {
  rr_ranks : Util.Rank_set.t;
  rr_events : int;
  rr_events_lost : int option;
}

type report = {
  frames_seen : int;
  frames_dropped : int;
  ranks_missing : int;
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
      | Some a, Some l -> Some (a + (l * Util.Rank_set.cardinal rr.rr_ranks))
      | _ -> None)
    (Some 0) r.per_rank

let report_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "salvage report (format v%d): %d/%d frames intact" version
       (r.frames_seen - r.frames_dropped)
       r.frames_seen);
  (match events_lost r with
  | Some 0 -> ()
  | Some n -> Buffer.add_string b (Printf.sprintf ", %d events lost" n)
  | None -> Buffer.add_string b ", events lost unknown");
  if r.ranks_missing > 0 then
    Buffer.add_string b
      (Printf.sprintf "\n  %d ranks missing entirely" r.ranks_missing);
  List.iter
    (fun rr ->
      if rr.rr_events_lost <> Some 0 then
        Buffer.add_string b
          (Printf.sprintf "\n  ranks %s: %d events recovered each%s"
             (Util.Rank_set.to_string rr.rr_ranks)
             rr.rr_events
             (match rr.rr_events_lost with
             | Some l -> Printf.sprintf ", %d lost each" l
             | None -> ", losses unknown")))
    r.per_rank;
  List.iter (fun n -> Buffer.add_string b ("\n  note: " ^ n)) r.notes;
  Buffer.add_char b '\n';
  Buffer.contents b

(* One chunk's nodes, cut to their longest well-formed prefix (open
   loops at the cut are dropped wholesale: their counts and bodies are
   not trustworthy).  An event on a communicator outside [known] is a
   defect, and the chunk is cut there — unless [drop_unknown] (the
   communicator table itself was lost and [known] is a guess): then the
   event is dropped where it stands, with any loop the drop leaves
   empty.  Clean input builds its node lists once. *)
type chunk = {
  nodes : Tnode.t list;
  error : (int * string) option;  (** where and why the chunk was cut *)
  dropped : int;  (** events dropped under [drop_unknown] *)
}

let parse_chunk ~nranks ~known ~drop_unknown payload =
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
              match int_of_string_opt rest with
              | Some c when c > 0 -> c
              | _ -> fail lineno "bad loop count"
            in
            opened := (count, !dropped, !cur) :: !opened;
            cur := []
        | "event" ->
            let e = parse_event lineno rest in
            (match Util.Rank_set.max_elt e.Event.ranks with
            | Some r when r < nranks -> ()
            | _ ->
                fail lineno "event ranks %s not within 0..%d"
                  (Util.Rank_set.to_string e.Event.ranks) (nranks - 1));
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

type manifest = {
  m_events : int option;
  m_chunks : int option;
  m_counts : (int * Util.Rank_set.t) list;  (** (events per rank, ranks) *)
  m_bad : (int * string) list;  (** lines it cannot read *)
}

let parse_manifest payload =
  let events = ref None and chunks = ref None and counts = ref [] and bad = ref [] in
  List.iteri
    (fun i raw ->
      match String.split_on_char ' ' (String.trim raw) with
      | [ "events"; v ] when int_of_string_opt v <> None -> events := int_of_string_opt v
      | [ "chunks"; v ] when int_of_string_opt v <> None -> chunks := int_of_string_opt v
      | [ "count"; c; ranks ] when int_of_string_opt c <> None -> (
          match ranks_of_string (i + 1) ranks with
          | set -> counts := (int_of_string c, set) :: !counts
          | exception Damage (line, what) -> bad := (line, what) :: !bad)
      | _ -> bad := (i + 1, Printf.sprintf "bad line %S" raw) :: !bad)
    (String.split_on_char '\n' payload);
  {
    m_events = !events;
    m_chunks = !chunks;
    m_counts = List.rev !counts;
    m_bad = List.rev !bad;
  }

let chunk_of_kind kind =
  if String.starts_with ~prefix:"chunk:" kind then
    int_of_string_opt (String.sub kind 6 (String.length kind - 6))
  else None

(* Damage is recorded in the order the checks run: container defects in
   file order, then the header, the communicator table, the chunks in
   order, and last the timing manifest.  That order makes the first
   damage the error a loader that stops at the first defect would
   report. *)
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
    let manifest = Option.map parse_manifest (find "timing") in
    (* nranks: the header frame, else the manifest's highest rank, else
       the communicator table's (the world communicator is every rank). *)
    let usable k = k > 0 && k <= max_ranks in
    let highest sets =
      List.fold_left
        (fun acc set ->
          match Util.Rank_set.max_elt set with Some r -> max acc (r + 1) | None -> acc)
        0 sets
    in
    let infer () =
      let from_manifest =
        Option.map (fun m -> highest (List.map snd m.m_counts)) manifest
      and from_comms = Option.map (fun c -> highest (List.map snd c)) comms in
      List.find_opt usable (List.filter_map Fun.id [ from_manifest; from_comms ])
    in
    let nranks, dropped =
      match header with
      | Some k when usable k -> (Some k, dropped)
      | Some k ->
          damaged 1 "header declares %d ranks, above the %d-rank ceiling" k max_ranks;
          note "header frame declares %d ranks; inferring rank count" k;
          (infer (), dropped + 1)
      | None ->
          note "header frame lost; inferring rank count";
          (infer (), dropped)
    in
    match nranks with
    | None ->
        unrecoverable
          "unrecoverable: no header, timing, or comms frame gives a rank count"
    | Some nranks ->
        let within set =
          match Util.Rank_set.max_elt set with Some r -> r < nranks | None -> true
        in
        let comms, drop_unknown =
          match comms with
          | Some c when List.for_all (fun (_, m) -> within m) c -> (c, false)
          | c ->
              if c <> None then
                damaged 1 "comms frame names ranks beyond %d" (nranks - 1);
              note "comms frame %s; assuming MPI_COMM_WORLD only"
                (if find "comms" = None then "lost" else "unreadable");
              ([ (0, Util.Rank_set.all nranks) ], true)
        in
        let known = List.map fst comms in
        let declared = Option.bind manifest (fun m -> m.m_chunks) in
        (* chunks 0, 1, ... up to the declared count, or the first one
           missing or malformed *)
        let rec load i acc =
          if declared = Some i then (i, acc, `Complete)
          else
            match find (Printf.sprintf "chunk:%d" i) with
            | None -> (i, acc, `Gap)
            | Some payload -> (
                let c = parse_chunk ~nranks ~known ~drop_unknown payload in
                if c.dropped > 0 then
                  note "chunk %d: dropped %d events on unknown communicators" i
                    c.dropped;
                match c.error with
                | None -> load (i + 1) (c.nodes :: acc)
                | Some (line, what) ->
                    damaged line "%s" what;
                    note "chunk %d: line %d: %s" i line what;
                    (i, c.nodes :: acc, `Malformed))
        in
        let stop, chunks, ended = load 0 [] in
        let nodes = List.concat (List.rev chunks) in
        let later =
          List.filter_map
            (fun (kind, _) ->
              match chunk_of_kind kind with Some j when j >= stop -> Some j | _ -> None)
            frames
        in
        let cut =
          match (ended, declared) with
          | `Complete, Some k ->
              if later <> [] then
                damaged 1 "timing frame declares %d chunks but the file has chunk %d"
                  k (List.fold_left max 0 later);
              false
          | `Gap, Some k ->
              damaged 1 "missing chunk frame %d of %d" stop k;
              true
          | `Gap, None ->
              (* without the manifest, only a later chunk proves a gap
                 (chunk [stop] itself is absent) *)
              if later <> [] then damaged 1 "missing chunk frame %d" stop;
              later <> []
          | `Malformed, _ -> true
          | `Complete, None -> false
        in
        if cut then
          note "trace cut at chunk %d%s: every rank keeps only its events before it"
            stop
            (match declared with Some k -> Printf.sprintf " of %d" k | None -> "");
        if nodes = [] && !damage <> [] then
          unrecoverable "unrecoverable: no chunk survived"
        else
          let trace = Trace.make ~nranks ~comms ~nodes in
          let expect =
            match manifest with
            | None ->
                damaged 1 "missing timing frame";
                []
            | Some m ->
                List.iter (fun (line, what) -> damaged line "timing frame: %s" what) m.m_bad;
                let loaded = Trace.event_count trace in
                (match m.m_events with
                | Some expect when expect <> loaded ->
                    damaged 1 "event-count manifest mismatch (%d recorded, %d loaded)"
                      expect loaded
                | _ -> ());
                if not (List.for_all (fun (_, set) -> within set) m.m_counts) then
                  damaged 1 "event-count manifest names ranks beyond %d" (nranks - 1);
                m.m_counts
          in
          let per_rank =
            List.map
              (fun ((got, listing), ranks) ->
                let lost =
                  match (manifest, listing) with
                  | None, _ -> None
                  | Some _, Listed expect ->
                      if got <> expect then
                        damaged 1
                          "ranks %s event-count manifest mismatch (%d recorded, %d loaded)"
                          (Util.Rank_set.to_string ranks) expect got;
                      Some (max 0 (expect - got))
                  | Some _, Unlisted ->
                      damaged 1 "ranks %s missing from the event-count manifest"
                        (Util.Rank_set.to_string ranks);
                      None
                  | Some _, Listed_twice ->
                      damaged 1 "ranks %s listed twice in the event-count manifest"
                        (Util.Rank_set.to_string ranks);
                      None
                in
                { rr_ranks = ranks; rr_events = got; rr_events_lost = lost })
              (tally ~nranks nodes ~expect)
          in
          let ranks_missing =
            List.fold_left
              (fun n rr ->
                if rr.rr_events = 0 && rr.rr_events_lost <> Some 0 then
                  n + Util.Rank_set.cardinal rr.rr_ranks
                else n)
              0 per_rank
          in
          let damage = List.rev !damage in
          (* Damage the frame, rank and loss lines cannot show (a missing
             separator, a manifest edit, ...) is listed as notes, so a
             degraded report never reads as intact. *)
          let shown =
            dropped > 0 || ranks_missing > 0
            || List.exists (fun rr -> rr.rr_events_lost <> Some 0) per_rank
          in
          Ok
            ( trace,
              {
                frames_seen = seen;
                frames_dropped = dropped;
                ranks_missing;
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
