(* Deterministic trace-damage helper for the CLI smoke tests:

     corrupt_trace <in> <out> truncate     # cut at the last frame boundary
     corrupt_trace <in> <out> flip         # flip one byte of the last
                                           # chunk's payload
     corrupt_trace <in> <out> ablate-chunk # drop the last chunk frame
     corrupt_trace <in> <out> huge-nranks  # header claims 10^11 ranks,
                                           # checksum recomputed
     corrupt_trace <in> <out> bad-separator  # the header frame's
                                             # separating newline overwritten
     corrupt_trace <in> <out> unknown-comm   # the last chunk's first comm=0
                                             # event moved to communicator
                                             # 7, checksum recomputed

   Depends only on util (for the CRC) so the dune rule builds it
   cheaply. *)

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

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

(* [(start, stop)] of the last chunk frame: its header line through its
   separator. *)
let last_chunk bytes bounds =
  let prefix = "frame chunk:" in
  let rec find found = function
    | h :: (next :: _ as rest) ->
        find
          (if String.starts_with ~prefix (String.sub bytes h (next - h)) then
             Some (h, next)
           else found)
          rest
    | _ -> (
        match found with
        | Some span -> span
        | None -> failwith "corrupt_trace: no chunk frame")
  in
  find None bounds

let () =
  match Sys.argv with
  | [| _; input; output; mode |] -> (
      let bytes = read_all input in
      let bounds = frame_boundaries bytes in
      match mode with
      | "truncate" ->
          (* cut at the last interior frame boundary *)
          let cut =
            match List.rev bounds with
            | _end :: prev :: _ -> prev
            | [ only ] -> only
            | [] -> String.length bytes / 2
          in
          write_all output (String.sub bytes 0 cut)
      | "flip" ->
          (* flip a byte in the middle of the last chunk's payload *)
          let start, stop = last_chunk bytes bounds in
          let payload = String.index_from bytes start '\n' + 1 in
          let pos = (payload + stop - 1) / 2 in
          let b = Bytes.of_string bytes in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
          write_all output (Bytes.to_string b)
      | "ablate-chunk" ->
          let start, stop = last_chunk bytes bounds in
          write_all output
            (String.sub bytes 0 start
            ^ String.sub bytes stop (String.length bytes - stop))
      | "huge-nranks" ->
          (* the header frame is the first frame: its header line, its
             payload line, then the next frame *)
          let start, stop =
            match bounds with
            | h :: next :: _ -> (h, next)
            | _ -> failwith "corrupt_trace: no header frame"
          in
          let payload = "nranks 100000000000" in
          let frame =
            Printf.sprintf "frame header %d %s\n%s\n" (String.length payload)
              (Util.Crc32.to_hex (Util.Crc32.string payload))
              payload
          in
          write_all output
            (String.sub bytes 0 start ^ frame
            ^ String.sub bytes stop (String.length bytes - stop))
      | "bad-separator" ->
          (* the byte before the second frame ends the header frame *)
          let sep =
            match bounds with
            | _ :: next :: _ -> next - 1
            | _ -> failwith "corrupt_trace: no header frame"
          in
          let b = Bytes.of_string bytes in
          Bytes.set b sep 'X';
          write_all output (Bytes.to_string b)
      | "unknown-comm" ->
          let start, stop = last_chunk bytes bounds in
          let frame = String.sub bytes start (stop - start) in
          let nl = String.index frame '\n' in
          (* payload without the separating newline *)
          let payload = String.sub frame (nl + 1) (String.length frame - nl - 2) in
          let key = " comm=0 " in
          let rec at i =
            if String.sub payload i (String.length key) = key then i else at (i + 1)
          in
          let i = at 0 in
          let payload =
            String.sub payload 0 i ^ " comm=7 "
            ^ String.sub payload (i + String.length key)
                (String.length payload - i - String.length key)
          in
          write_all output
            (String.sub bytes 0 start
            ^ Printf.sprintf "frame %s %d %s\n%s\n"
                (List.nth (String.split_on_char ' ' frame) 1)
                (String.length payload)
                (Util.Crc32.to_hex (Util.Crc32.string payload))
                payload
            ^ String.sub bytes stop (String.length bytes - stop))
      | m ->
          prerr_endline ("corrupt_trace: unknown mode " ^ m);
          exit 2)
  | _ ->
      prerr_endline
        "usage: corrupt_trace <in> <out> \
         truncate|flip|ablate-chunk|huge-nranks|bad-separator|unknown-comm";
      exit 2
