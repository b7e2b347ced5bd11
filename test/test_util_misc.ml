open Util

let t name f = Alcotest.test_case name `Quick f

let rng_tests =
  [
    t "deterministic for equal seeds" (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "same" (Rng.bits64 a) (Rng.bits64 b)
        done);
    t "different seeds differ" (fun () ->
        let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
        Alcotest.(check bool) "differ" true (Rng.bits64 a <> Rng.bits64 b));
    t "int respects bound" (fun () ->
        let r = Rng.create ~seed:3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          Alcotest.(check bool) "bound" true (v >= 0 && v < 17)
        done);
    t "int rejects non-positive bound" (fun () ->
        let r = Rng.create ~seed:3 in
        Alcotest.check_raises "bound" (Invalid_argument "Rng.int: bound <= 0")
          (fun () -> ignore (Rng.int r 0)));
    t "float in unit interval" (fun () ->
        let r = Rng.create ~seed:5 in
        for _ = 1 to 1000 do
          let v = Rng.float r in
          Alcotest.(check bool) "unit" true (v >= 0. && v < 1.)
        done);
    t "split independence" (fun () ->
        let base = Rng.create ~seed:11 in
        let a = Rng.split base ~index:0 in
        let base2 = Rng.create ~seed:11 in
        let a' = Rng.split base2 ~index:0 in
        Alcotest.(check int64) "reproducible" (Rng.bits64 a) (Rng.bits64 a'));
    t "repeated splits at the same index yield distinct streams" (fun () ->
        (* the split draw advances the parent, so each call derives a new
           child even for equal indices — the documented contract *)
        let base = Rng.create ~seed:29 in
        let children = List.init 8 (fun _ -> Rng.split base ~index:3) in
        let firsts = List.map Rng.bits64 children in
        let distinct = List.sort_uniq compare firsts in
        Alcotest.(check int) "all distinct" (List.length firsts)
          (List.length distinct));
    t "int is exactly uniform over small bounds" (fun () ->
        (* rejection sampling: every residue appears with equal probability;
           with modulo bias over 2^62 the skew for bound=3 would be
           invisible here, so instead check the full distribution is close
           AND that values cover the range *)
        let r = Rng.create ~seed:31 in
        let counts = Array.make 3 0 in
        let n = 30_000 in
        for _ = 1 to n do
          let v = Rng.int r 3 in
          counts.(v) <- counts.(v) + 1
        done;
        Array.iter
          (fun c ->
            Alcotest.(check bool) "roughly uniform" true
              (abs (c - (n / 3)) < n / 30))
          counts);
    t "gaussian truncation" (fun () ->
        let r = Rng.create ~seed:13 in
        for _ = 1 to 500 do
          let v = Rng.gaussian r ~truncate_at_zero:true ~mean:0.01 ~stddev:0.1 () in
          Alcotest.(check bool) "non-negative" true (v >= 0.)
        done);
    t "gaussian mean roughly right" (fun () ->
        let r = Rng.create ~seed:17 in
        let n = 10000 in
        let sum = ref 0. in
        for _ = 1 to n do
          sum := !sum +. Rng.gaussian r ~mean:5.0 ~stddev:1.0 ()
        done;
        let m = !sum /. float_of_int n in
        Alcotest.(check bool) "close" true (Float.abs (m -. 5.0) < 0.05));
    t "exponential positive" (fun () ->
        let r = Rng.create ~seed:19 in
        for _ = 1 to 100 do
          Alcotest.(check bool) "pos" true (Rng.exponential r ~mean:2.0 >= 0.)
        done);
    t "shuffle permutes" (fun () ->
        let r = Rng.create ~seed:23 in
        let a = Array.init 50 Fun.id in
        Rng.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted);
  ]

let pqueue_tests =
  [
    t "pop order by time" (fun () ->
        let q = Pqueue.create () in
        Pqueue.add q ~time:3. "c";
        Pqueue.add q ~time:1. "a";
        Pqueue.add q ~time:2. "b";
        Alcotest.(check (option (pair (float 0.) string))) "a" (Some (1., "a")) (Pqueue.pop q);
        Alcotest.(check (option (pair (float 0.) string))) "b" (Some (2., "b")) (Pqueue.pop q);
        Alcotest.(check (option (pair (float 0.) string))) "c" (Some (3., "c")) (Pqueue.pop q);
        Alcotest.(check bool) "empty" true (Pqueue.is_empty q));
    t "fifo among equal times" (fun () ->
        let q = Pqueue.create () in
        List.iter (fun s -> Pqueue.add q ~time:1. s) [ "x"; "y"; "z" ];
        let order = List.init 3 (fun _ -> snd (Option.get (Pqueue.pop q))) in
        Alcotest.(check (list string)) "fifo" [ "x"; "y"; "z" ] order);
    t "rejects nan time" (fun () ->
        let q = Pqueue.create () in
        Alcotest.check_raises "nan" (Invalid_argument "Pqueue.add: non-finite time")
          (fun () -> Pqueue.add q ~time:Float.nan ()));
    t "peek_time" (fun () ->
        let q = Pqueue.create () in
        Alcotest.(check (option (float 0.))) "empty" None (Pqueue.peek_time q);
        Pqueue.add q ~time:5. ();
        Alcotest.(check (option (float 0.))) "peek" (Some 5.) (Pqueue.peek_time q));
    t "length" (fun () ->
        let q = Pqueue.create () in
        for i = 1 to 10 do Pqueue.add q ~time:(float_of_int i) i done;
        Alcotest.(check int) "len" 10 (Pqueue.length q));
  ]

let pqueue_props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      QCheck.Test.make ~name:"pqueue is a sorter" ~count:200
        QCheck.(small_list (float_range 0. 100.))
        (fun times ->
          let q = Pqueue.create () in
          List.iter (fun t -> Pqueue.add q ~time:t ()) times;
          let rec drain acc =
            match Pqueue.pop q with
            | None -> List.rev acc
            | Some (t, ()) -> drain (t :: acc)
          in
          drain [] = List.sort compare times);
      (* pop order = the reference semantics: sort by (time, insertion seq).
         A stable sort on time alone is exactly that, payload included. *)
      QCheck.Test.make ~name:"pqueue pop order is (time, seq) with FIFO ties"
        ~count:200
        QCheck.(small_list (int_range 0 5))
        (fun raw ->
          let items = List.mapi (fun i t -> (float_of_int t, i)) raw in
          let q = Pqueue.create () in
          List.iter (fun (t, i) -> Pqueue.add q ~time:t i) items;
          let rec drain acc =
            match Pqueue.pop q with
            | None -> List.rev acc
            | Some (t, i) -> drain ((t, i) :: acc)
          in
          drain []
          = List.stable_sort (fun (a, _) (b, _) -> compare a b) items);
      QCheck.Test.make ~name:"pqueue interleaved add/pop round-trips"
        ~count:200
        QCheck.(small_list (pair bool (int_range 0 9)))
        (fun ops ->
          (* model: a sorted association list with the same (time, seq) key *)
          let q = Pqueue.create () in
          let model = ref [] and seq = ref 0 in
          List.for_all
            (fun (is_pop, t) ->
              if is_pop then begin
                let expected =
                  match !model with
                  | [] -> None
                  | xs ->
                      let ((tm, _, v) as m) =
                        List.fold_left
                          (fun acc x ->
                            let (ta, sa, _) = acc and (tx, sx, _) = x in
                            if (tx, sx) < (ta, sa) then x else acc)
                          (List.hd xs) (List.tl xs)
                      in
                      model := List.filter (fun x -> x != m) !model;
                      Some (tm, v)
                in
                Pqueue.pop q = expected
              end
              else begin
                let tf = float_of_int t in
                Pqueue.add q ~time:tf !seq;
                model := (tf, !seq, !seq) :: !model;
                incr seq;
                Pqueue.length q = List.length !model
              end)
            ops);
    ]

let deque_tests =
  [
    t "fifo order" (fun () ->
        let d = Deque.create () in
        List.iter (fun i -> Deque.push_back d i) [ 1; 2; 3 ];
        Alcotest.(check (option int)) "peek" (Some 1) (Deque.peek_front d);
        Alcotest.(check (option int)) "1" (Some 1) (Deque.pop_front d);
        Alcotest.(check (option int)) "2" (Some 2) (Deque.pop_front d);
        Alcotest.(check (option int)) "3" (Some 3) (Deque.pop_front d);
        Alcotest.(check (option int)) "empty" None (Deque.pop_front d));
    t "survives growth past initial capacity" (fun () ->
        let d = Deque.create ~capacity:2 () in
        (* ring-buffer wraparound: interleave pushes and pops so head moves *)
        for i = 0 to 99 do
          Deque.push_back d i;
          if i mod 3 = 2 then ignore (Deque.pop_front d)
        done;
        let expected =
          List.filter (fun i -> i > 32) (List.init 100 Fun.id)
        in
        Alcotest.(check int) "length" (List.length expected) (Deque.length d);
        Alcotest.(check (list int)) "contents" expected (Deque.to_list d));
    t "remove_first removes only the first match" (fun () ->
        let d = Deque.create () in
        List.iter (fun i -> Deque.push_back d i) [ 1; 2; 3; 2; 4 ];
        Alcotest.(check (option int)) "removed" (Some 2)
          (Deque.remove_first (fun x -> x mod 2 = 0) d);
        Alcotest.(check (list int)) "rest" [ 1; 3; 2; 4 ] (Deque.to_list d);
        Alcotest.(check (option int)) "no match" None
          (Deque.remove_first (fun x -> x > 100) d));
    t "find_first and exists" (fun () ->
        let d = Deque.create () in
        List.iter (fun i -> Deque.push_back d i) [ 5; 6; 7 ];
        Alcotest.(check (option int)) "find" (Some 6)
          (Deque.find_first (fun x -> x mod 2 = 0) d);
        Alcotest.(check bool) "exists" true (Deque.exists (fun x -> x = 7) d);
        Alcotest.(check bool) "not exists" false (Deque.exists (fun x -> x = 8) d);
        Alcotest.(check (list int)) "find does not remove" [ 5; 6; 7 ]
          (Deque.to_list d));
    t "clear empties" (fun () ->
        let d = Deque.create () in
        List.iter (fun i -> Deque.push_back d i) [ 1; 2 ];
        Deque.clear d;
        Alcotest.(check bool) "empty" true (Deque.is_empty d);
        Alcotest.(check (option int)) "pop" None (Deque.pop_front d))
  ]

let deque_props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260806 |]))
    [
      (* model-based: a Deque behaves exactly like a FIFO list under any
         interleaving of push/pop/remove_first, including across growth *)
      QCheck.Test.make ~name:"deque matches list model" ~count:300
        QCheck.(list (pair (int_range 0 2) (int_range 0 9)))
        (fun ops ->
          let d = Deque.create ~capacity:1 () in
          let model = ref [] in
          List.for_all
            (fun (op, v) ->
              match op with
              | 0 ->
                  Deque.push_back d v;
                  model := !model @ [ v ];
                  Deque.length d = List.length !model
              | 1 -> (
                  let got = Deque.pop_front d in
                  match !model with
                  | [] -> got = None
                  | x :: rest ->
                      model := rest;
                      got = Some x)
              | _ -> (
                  let pred x = x = v in
                  let got = Deque.remove_first pred d in
                  match List.find_opt pred !model with
                  | None -> got = None
                  | Some x ->
                      let rec drop = function
                        | [] -> []
                        | y :: rest -> if pred y then rest else y :: drop rest
                      in
                      model := drop !model;
                      got = Some x)
              && Deque.to_list d = !model)
            ops);
    ]

let callsite_tests =
  [
    t "make distinct positions" (fun () ->
        let a = Callsite.make ("f.ml", 1, 0, 0) and b = Callsite.make ("f.ml", 2, 0, 0) in
        Alcotest.(check bool) "neq" false (Callsite.equal a b));
    t "label distinguishes" (fun () ->
        let a = Callsite.make ~label:"x" ("f.ml", 1, 0, 0) in
        let b = Callsite.make ~label:"y" ("f.ml", 1, 0, 0) in
        Alcotest.(check bool) "neq" false (Callsite.equal a b));
    t "equal reflexive" (fun () ->
        let a = Callsite.make ("f.ml", 1, 2, 3) in
        Alcotest.(check bool) "eq" true (Callsite.equal a a));
    t "synthetic" (fun () ->
        Alcotest.(check bool) "eq" true
          (Callsite.equal (Callsite.synthetic "gen1") (Callsite.synthetic "gen1"));
        Alcotest.(check bool) "neq" false
          (Callsite.equal (Callsite.synthetic "gen1") (Callsite.synthetic "gen2")));
    t "compare total order" (fun () ->
        let a = Callsite.make ("a.ml", 1, 0, 0) and b = Callsite.make ("b.ml", 1, 0, 0) in
        Alcotest.(check bool) "antisym" true
          (Callsite.compare a b = -Callsite.compare b a));
  ]

let stats_tests =
  [
    t "mape" (fun () ->
        Alcotest.(check (float 1e-9)) "mape" 10.
          (Stats.mape [ (100., 110.); (100., 90.) ]));
    t "mape skips zero reference" (fun () ->
        Alcotest.(check (float 1e-9)) "mape" 5. (Stats.mape [ (0., 3.); (100., 105.) ]));
    t "pct_error sign" (fun () ->
        Alcotest.(check (float 1e-9)) "neg" (-10.)
          (Stats.pct_error ~reference:100. ~measured:90.));
    t "geomean" (fun () ->
        Alcotest.(check (float 1e-9)) "geo" 4. (Stats.geomean [ 2.; 8. ]));
    t "table render aligns" (fun () ->
        let s = Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ] in
        Alcotest.(check bool) "has rule" true (String.length s > 0));
    t "fsec units" (fun () ->
        Alcotest.(check string) "s" "1.500 s" (Table.fsec 1.5);
        Alcotest.(check string) "ms" "2.50 ms" (Table.fsec 2.5e-3);
        Alcotest.(check string) "us" "3.00 us" (Table.fsec 3e-6);
        Alcotest.(check string) "ns" "5.0 ns" (Table.fsec 5e-9));
    t "fbytes units" (fun () ->
        Alcotest.(check string) "b" "512 B" (Table.fbytes 512);
        Alcotest.(check string) "k" "2.00 KiB" (Table.fbytes 2048));
  ]

(* Util.Rendezvous against a naive model: assoc-style tables, linear
   scans, and every derived figure recomputed from scratch each step.
   Scenarios: 2-6 ranks, 1-3 communicators with members in shuffled
   order, whole-communicator and partial (shuffled subset) participant
   groups, and arrivals biased toward members but including outsiders. *)
let rendezvous_props =
  let scenario =
    QCheck.Gen.(
      int_range 2 6 >>= fun nranks ->
      int_range 1 3 >>= fun ncomms ->
      let prefix l = int_range 1 (List.length l) >|= fun k -> List.filteri (fun i _ -> i < k) l in
      list_repeat ncomms (shuffle_l (List.init nranks Fun.id) >>= prefix)
      >>= fun comms ->
      let group =
        int_range 0 (ncomms - 1) >>= fun c ->
        let members = List.nth comms c in
        bool >>= fun whole ->
        if whole then return (c, "", members)
        else
          shuffle_l members >>= prefix >|= fun parts ->
          (c, Rendezvous.signature (Array.of_list parts), parts)
      in
      list_size (int_range 1 4) group >>= fun groups ->
      let ngroups = List.length groups in
      let arrival =
        int_range 0 (ngroups - 1) >>= fun g ->
        let _, _, members = List.nth groups g in
        frequency
          [ (3, oneofl members); (1, int_range 0 (nranks - 1)) ]
        >|= fun r -> (r, g)
      in
      list_size (int_range 0 60) arrival >|= fun arrivals ->
      (nranks, groups, arrivals))
  in
  let print (nranks, groups, arrivals) =
    Printf.sprintf "nranks=%d groups=[%s] arrivals=[%s]" nranks
      (String.concat "; "
         (List.map
            (fun (c, psig, ms) ->
              Printf.sprintf "comm %d sig %S {%s}" c psig
                (String.concat "," (List.map string_of_int ms)))
            groups))
      (String.concat "; "
         (List.map (fun (r, g) -> Printf.sprintf "r%d->g%d" r g) arrivals))
  in
  let holds (nranks, groups, arrivals) =
    let groups = Array.of_list groups in
    let t = Rendezvous.create () in
    let opened = ref 0 and opened_model = ref 0 in
    let slots = Hashtbl.create 16 in
    (* key -> (members as given, arrived payloads newest first) *)
    let waits : (Rendezvous.key, int list * (int * int) list ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let missing_of (members, arrived) =
      List.filter (fun m -> not (List.mem_assoc m !arrived)) members
      |> List.sort compare
    in
    let fail step what =
      QCheck.Test.fail_reportf "step %d: %s" step what
    in
    List.iteri
      (fun step (rank, g) ->
        let comm, psig, members = groups.(g) in
        let slot =
          Option.value ~default:0 (Hashtbl.find_opt slots (rank, comm, psig))
        in
        Hashtbl.replace slots (rank, comm, psig) (slot + 1);
        let key = { Rendezvous.comm; psig; slot } in
        let ((_, arrived) as mw) =
          match Hashtbl.find_opt waits key with
          | Some mw -> mw
          | None ->
              incr opened_model;
              let mw = (members, ref []) in
              Hashtbl.replace waits key mw;
              mw
        in
        let got =
          Rendezvous.arrive t ~rank ~comm ~psig
            ~members:(fun () ->
              incr opened;
              Array.of_list members)
            (rank, step)
        in
        let w =
          match got with Parked w | Complete w | Not_member w -> w
        in
        if Rendezvous.key w <> key then fail step "wrong slot";
        if Array.to_list (Rendezvous.members w) <> members then
          fail step "members not as given";
        (if not (List.mem rank members) then (
           match got with
           | Not_member _ -> ()
           | _ -> fail step "non-member arrival was recorded")
         else begin
           arrived := (rank, step) :: !arrived;
           if Rendezvous.arrivals w <> !arrived then
             fail step "arrivals not newest first";
           match (got, missing_of mw) with
           | Complete _, [] -> Hashtbl.remove waits key
           | Parked _, (m :: _ as miss) ->
               if Rendezvous.smallest_missing w <> m then
                 fail step "smallest missing";
               if Rendezvous.missing w <> miss then fail step "missing"
           | _ -> fail step "completion not at the last member's arrival"
         end);
        if !opened <> !opened_model then fail step "members built per arrival";
        let listed =
          List.map
            (fun w -> (Rendezvous.key w, Rendezvous.missing w))
            (Rendezvous.pending t)
        in
        let model =
          Hashtbl.fold (fun k mw acc -> (k, missing_of mw) :: acc) waits []
          |> List.sort compare
        in
        if listed <> model then fail step "pending listing";
        for r = 0 to nranks - 1 do
          Array.iter
            (fun (comm, psig, _) ->
              let expect =
                match Hashtbl.find_opt slots (r, comm, psig) with
                | Some next -> (
                    let k = { Rendezvous.comm; psig; slot = next - 1 } in
                    match Hashtbl.find_opt waits k with
                    | Some (_, arr) when List.mem_assoc r !arr -> Some k
                    | _ -> None)
                | None -> None
              in
              let got = Rendezvous.parked t ~rank:r ~comm ~psig in
              if Option.map Rendezvous.key got <> expect then
                fail step (Printf.sprintf "parked rank %d" r))
            groups
        done)
      arrivals;
    true
  in
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261017 |]))
    [
      QCheck.Test.make ~name:"rendezvous matches a naive model" ~count:500
        (QCheck.make ~print scenario) holds;
    ]

let rendezvous_tests =
  [
    t "signature" (fun () ->
        Alcotest.(check string) "whole" "" (Rendezvous.signature [||]);
        Alcotest.(check string) "given order" "4,0,2"
          (Rendezvous.signature [| 4; 0; 2 |]));
    t "smallest_missing rejects a complete wait" (fun () ->
        let t = Rendezvous.create () in
        match
          Rendezvous.arrive t ~rank:0 ~comm:0 ~psig:"" ~members:(fun () -> [| 0 |]) ()
        with
        | Complete w ->
            Alcotest.check_raises "complete"
              (Invalid_argument "Rendezvous.smallest_missing: complete wait")
              (fun () -> ignore (Rendezvous.smallest_missing w))
        | _ -> Alcotest.fail "a one-member wait completes at once");
  ]

let suite =
  rng_tests @ pqueue_tests @ pqueue_props @ deque_tests @ deque_props
  @ callsite_tests @ stats_tests @ rendezvous_tests @ rendezvous_props
