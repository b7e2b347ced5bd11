(* Timing, allocation and process-isolation helpers shared by every
   workload of the benchmark.

   A workload's unit of measurement is a {e sample}: additive figures
   (seconds, counts, words) keyed by metric name, plus the peak heap of
   the process that produced them and the outcome of the output checks.
   Samples from the apps of one pass are summed; the figures a run
   reports are medians over its passes. *)

let now = Util.Clock.monotonic_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Words allocated so far by this process: minor allocations plus direct
   major allocations, without counting promoted words twice.
   [Gc.minor_words] also counts the live minor heap, which
   [Gc.quick_stat] only adds at the next minor collection. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.major_words -. s.promoted_words

let major_words () = (Gc.quick_stat ()).major_words

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)

type sample = {
  sums : (string * float) list;  (** additive figures, by metric name *)
  heap_mb : float;  (** peak heap of the producing process(es) *)
  ops : int;  (** checked operations attempted *)
  failed : int;  (** operations that failed or failed a check *)
  failures : string list;  (** what went wrong, one line per problem *)
}

let empty = { sums = []; heap_mb = 0.; ops = 0; failed = 0; failures = [] }

let failure what = { empty with ops = 1; failed = 1; failures = [ what ] }

let get s k = Option.value ~default:0. (List.assoc_opt k s.sums)

let add_sums a b =
  let keys = List.sort_uniq compare (List.map fst a @ List.map fst b) in
  let get l k = Option.value ~default:0. (List.assoc_opt k l) in
  List.map (fun k -> (k, get a k +. get b k)) keys

let merge a b =
  {
    sums = add_sums a.sums b.sums;
    heap_mb = Float.max a.heap_mb b.heap_mb;
    ops = a.ops + b.ops;
    failed = a.failed + b.failed;
    failures = a.failures @ b.failures;
  }

let merge_all = List.fold_left merge empty

(* An accumulator for the sample a child process builds up. *)
type acc = { mutable a_sums : (string * float) list; mutable a_fail : string list }

let acc () = { a_sums = []; a_fail = [] }
let add a k v = a.a_sums <- add_sums a.a_sums [ (k, v) ]
let acc_get a k = Option.value ~default:0. (List.assoc_opt k a.a_sums)

(* [timed a k f] runs [f], adding its wall time to figure [k]. *)
let timed a k f =
  let r, dt = time f in
  add a k dt;
  r

let check a ok what = if not ok then a.a_fail <- what :: a.a_fail

(* Close an accumulator into a one-operation sample, reading the peak
   heap now: call it after the measured work and before any check that
   allocates more than the product does. *)
let sample_of ?(heap_mb = top_heap_mb ()) a =
  let failures = List.rev a.a_fail in
  { sums = a.a_sums; heap_mb; ops = 1; failed = Bool.to_int (failures <> []); failures }

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q l =
  match List.sort Float.compare l with
  | [] -> 0.
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i >= n - 1 then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = quantile 0.5 l
let mean l = match l with [] -> 0. | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* Process isolation                                                   *)

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | r -> r

(* Run [f ()] in a forked child and marshal its result (or the
   exception it raised) back. *)
let fork_run (f : unit -> 'a) : ('a, string) result =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      let oc = Unix.out_channel_of_descr wr in
      (try
         Marshal.to_channel oc r [];
         close_out oc
       with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let r = try Marshal.from_channel ic with End_of_file | Failure _ -> Error "no result" in
      close_in ic;
      match waitpid_retry pid with
      | _, Unix.WEXITED 0 -> r
      | _, Unix.WEXITED n -> Error (Printf.sprintf "child exited with status %d" n)
      | _, Unix.WSIGNALED s -> Error (Printf.sprintf "child killed by signal %d" s)
      | _, Unix.WSTOPPED _ -> Error "child stopped")

(* The fork server: a helper forked at start-up, while this process's
   heap is still nearly empty.  Passes are forked from the helper, not
   from this process, so however much this process has allocated by
   then, every pass starts from a fresh heap and its [top_heap_words] is
   that pass's own peak.  The helper receives each pass as a marshaled
   closure, which is sound because it runs this very program image. *)
type fork_server = { pid : int; req : out_channel; resp : in_channel }

let fork_server = ref None

let start_fork_server () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
      (* Never return into the caller: it is this process's parent's code. *)
      (try
         while true do
           let f : unit -> Obj.t = Marshal.from_channel ic in
           Marshal.to_channel oc (fork_run f) [];
           flush oc
         done
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      let srv =
        { pid; req = Unix.out_channel_of_descr req_w; resp = Unix.in_channel_of_descr resp_r }
      in
      fork_server := Some srv;
      at_exit (fun () ->
          if !fork_server == Some srv then begin
            fork_server := None;
            close_out_noerr srv.req;
            ignore (waitpid_retry pid)
          end)

(* [in_child f] runs [f ()] in a fresh child process (from the fork
   server, when it runs) and returns its result, so every measured pass
   starts from a fresh heap: no garbage or heap growth carries over from
   one pass to the next.  The result must be marshalable. *)
let in_child (type a) (f : unit -> a) : (a, string) result =
  match !fork_server with
  | None -> fork_run f
  | Some srv -> (
      Marshal.to_channel srv.req (f : unit -> a) [ Marshal.Closures ];
      flush srv.req;
      try (Marshal.from_channel srv.resp : (a, string) result)
      with End_of_file | Failure _ -> Error "fork server died")

(* A sample computed in a child; a child that raised or died becomes one
   failed operation. *)
let sample_in_child what f =
  match in_child f with
  | Ok s -> s
  | Error msg -> failure (what ^ ": " ^ msg)

(* [repeat ~seconds pass] runs [pass ()] at least once, and again while
   another pass is expected to end by [seconds] of wall time (at most
   half a pass late); returns every pass's result. *)
let repeat ~seconds pass =
  let t0 = now () in
  let rec go acc =
    let t = now () in
    let acc = pass () :: acc in
    let elapsed = now () -. t0 in
    if elapsed +. ((now () -. t) /. 2.) >= seconds then List.rev acc else go acc
  in
  go []
