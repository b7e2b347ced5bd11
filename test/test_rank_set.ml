open Util

let check = Alcotest.(check (list int))

let t name f = Alcotest.test_case name `Quick f

let basics =
  [
    t "empty" (fun () -> check "empty" [] (Rank_set.to_list Rank_set.empty));
    t "singleton" (fun () -> check "s" [ 5 ] (Rank_set.to_list (Rank_set.singleton 5)));
    t "range" (fun () ->
        check "r" [ 2; 3; 4; 5 ] (Rank_set.to_list (Rank_set.range 2 5)));
    t "range stride" (fun () ->
        check "r" [ 0; 3; 6; 9 ] (Rank_set.to_list (Rank_set.range ~stride:3 0 9)));
    t "range stride truncates" (fun () ->
        check "r" [ 1; 4; 7 ] (Rank_set.to_list (Rank_set.range ~stride:3 1 8)));
    t "range rejects bad stride" (fun () ->
        Alcotest.check_raises "stride" (Invalid_argument "Rank_set.range: stride <= 0")
          (fun () -> ignore (Rank_set.range ~stride:0 0 3)));
    t "all" (fun () -> check "all" [ 0; 1; 2; 3 ] (Rank_set.to_list (Rank_set.all 4)));
    t "all zero" (fun () -> check "all0" [] (Rank_set.to_list (Rank_set.all 0)));
    t "of_list dedups and sorts" (fun () ->
        check "d" [ 1; 2; 9 ] (Rank_set.to_list (Rank_set.of_list [ 9; 1; 2; 1; 9 ])));
    t "of_intervals rejects descending input" (fun () ->
        Alcotest.check_raises "order"
          (Invalid_argument "Rank_set.push: ranks not ascending") (fun () ->
            ignore (Rank_set.of_intervals [ (4, 8, 2); (0, 3, 1) ])));
    t "of_list finds stride" (fun () ->
        Alcotest.(check int)
          "intervals" 1
          (Rank_set.interval_count (Rank_set.of_list [ 0; 4; 8; 12 ])));
    t "mem" (fun () ->
        let s = Rank_set.range ~stride:2 0 8 in
        Alcotest.(check bool) "in" true (Rank_set.mem 4 s);
        Alcotest.(check bool) "out" false (Rank_set.mem 3 s);
        Alcotest.(check bool) "beyond" false (Rank_set.mem 10 s));
    t "add remove" (fun () ->
        let s = Rank_set.add 3 (Rank_set.of_list [ 1; 2 ]) in
        check "add" [ 1; 2; 3 ] (Rank_set.to_list s);
        check "remove" [ 1; 3 ] (Rank_set.to_list (Rank_set.remove 2 s)));
    t "min max" (fun () ->
        let s = Rank_set.of_list [ 7; 3; 9 ] in
        Alcotest.(check (option int)) "min" (Some 3) (Rank_set.min_elt s);
        Alcotest.(check (option int)) "max" (Some 9) (Rank_set.max_elt s);
        Alcotest.(check (option int)) "min empty" None (Rank_set.min_elt Rank_set.empty));
    t "cardinal" (fun () ->
        Alcotest.(check int) "card" 5 (Rank_set.cardinal (Rank_set.range ~stride:2 0 8)));
    t "interval compression of all-n" (fun () ->
        Alcotest.(check int) "one interval" 1
          (Rank_set.interval_count (Rank_set.all 1000)));
    t "pp strided" (fun () ->
        Alcotest.(check string) "pp" "{0-9:3}"
          (Rank_set.to_string (Rank_set.range ~stride:3 0 9)));
    t "map" (fun () ->
        check "map" [ 1; 3; 5 ]
          (Rank_set.to_list (Rank_set.map (fun r -> (2 * r) + 1) (Rank_set.all 3))));
    t "filter" (fun () ->
        check "filter" [ 0; 2; 4 ]
          (Rank_set.to_list (Rank_set.filter (fun r -> r mod 2 = 0) (Rank_set.all 6))));
  ]

let set_ops =
  [
    t "union" (fun () ->
        check "u" [ 0; 1; 2; 3; 4 ]
          (Rank_set.to_list
             (Rank_set.union (Rank_set.of_list [ 0; 2; 4 ]) (Rank_set.of_list [ 1; 3 ]))));
    t "inter" (fun () ->
        check "i" [ 2; 4 ]
          (Rank_set.to_list
             (Rank_set.inter (Rank_set.of_list [ 0; 2; 4 ]) (Rank_set.range 1 4))));
    t "diff" (fun () ->
        check "d" [ 0; 4 ]
          (Rank_set.to_list
             (Rank_set.diff (Rank_set.of_list [ 0; 2; 4 ]) (Rank_set.of_list [ 2 ]))));
    t "subset" (fun () ->
        Alcotest.(check bool) "sub" true
          (Rank_set.subset (Rank_set.of_list [ 1; 3 ]) (Rank_set.all 4));
        Alcotest.(check bool) "not sub" false
          (Rank_set.subset (Rank_set.of_list [ 5 ]) (Rank_set.all 4)));
    t "equal ignores construction" (fun () ->
        Alcotest.(check bool) "eq" true
          (Rank_set.equal (Rank_set.of_list [ 0; 1; 2 ]) (Rank_set.range 0 2)));
  ]

let gen_set =
  QCheck.map
    (fun l -> Rank_set.of_list (List.map abs l))
    QCheck.(small_list small_int)

let props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      QCheck.Test.make ~name:"to_list sorted and unique" ~count:200 gen_set (fun s ->
          let l = Rank_set.to_list s in
          l = List.sort_uniq compare l);
      QCheck.Test.make ~name:"union is commutative" ~count:200
        (QCheck.pair gen_set gen_set) (fun (a, b) ->
          Rank_set.equal (Rank_set.union a b) (Rank_set.union b a));
      QCheck.Test.make ~name:"inter subset of both" ~count:200
        (QCheck.pair gen_set gen_set) (fun (a, b) ->
          let i = Rank_set.inter a b in
          Rank_set.subset i a && Rank_set.subset i b);
      QCheck.Test.make ~name:"diff disjoint from b" ~count:200
        (QCheck.pair gen_set gen_set) (fun (a, b) ->
          Rank_set.is_empty (Rank_set.inter (Rank_set.diff a b) b));
      QCheck.Test.make ~name:"cardinal = |to_list|" ~count:200 gen_set (fun s ->
          Rank_set.cardinal s = List.length (Rank_set.to_list s));
      QCheck.Test.make ~name:"mem agrees with to_list" ~count:200
        (QCheck.pair gen_set QCheck.small_int) (fun (s, r) ->
          let r = abs r in
          Rank_set.mem r s = List.mem r (Rank_set.to_list s));
      QCheck.Test.make ~name:"interval encoding roundtrips" ~count:200 gen_set
        (fun s ->
          let rebuilt =
            List.concat_map
              (fun (first, last, stride) ->
                let rec up v acc = if v > last then acc else up (v + stride) (v :: acc) in
                up first [])
              (Rank_set.intervals s)
          in
          Rank_set.equal s (Rank_set.of_list rebuilt));
      QCheck.Test.make ~name:"of_intervals rebuilds the canonical set" ~count:200
        (QCheck.pair gen_set QCheck.small_int) (fun (s, k) ->
          (* the set's own intervals, and the same ranks split into
             ascending runs of at most [k + 1] *)
          let rec runs acc = function
            | [] -> List.rev acc
            | r :: rest ->
                let rec take n prev = function
                  | r' :: rest when n > 0 && r' = prev + 1 -> take (n - 1) r' rest
                  | rest -> (prev, rest)
                in
                let last, rest = take (k mod 4) r rest in
                runs ((r, last, 1) :: acc) rest
          in
          Rank_set.equal s (Rank_set.of_intervals (Rank_set.intervals s))
          && Rank_set.equal s (Rank_set.of_intervals (runs [] (Rank_set.to_list s))));
    ]

let suite = basics @ set_ops @ props
