open Util

let t name f = Alcotest.test_case name `Quick f
let feq = Alcotest.(check (float 1e-9))

let unit_tests =
  [
    t "empty" (fun () ->
        let h = Histogram.create () in
        Alcotest.(check int) "count" 0 (Histogram.count h);
        feq "mean" 0. (Histogram.mean h);
        feq "min" 0. (Histogram.min_value h);
        feq "max" 0. (Histogram.max_value h));
    t "single sample" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 0.5;
        Alcotest.(check int) "count" 1 (Histogram.count h);
        feq "mean" 0.5 (Histogram.mean h);
        feq "first" 0.5 (Histogram.first_sample h));
    t "mean/min/max exact" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 6.0 ];
        feq "mean" 3.0 (Histogram.mean h);
        feq "min" 1.0 (Histogram.min_value h);
        feq "max" 6.0 (Histogram.max_value h);
        feq "sum" 12.0 (Histogram.sum h));
    t "first sample" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 10.0; 1.0; 1.0; 1.0 ];
        feq "first" 10.0 (Histogram.first_sample h));
    t "rejects negative" (fun () ->
        let h = Histogram.create () in
        Alcotest.check_raises "neg"
          (Invalid_argument "Histogram.add: sample must be finite and non-negative")
          (fun () -> Histogram.add h (-1.0)));
    t "rejects nan" (fun () ->
        let h = Histogram.create () in
        Alcotest.check_raises "nan"
          (Invalid_argument "Histogram.add: sample must be finite and non-negative")
          (fun () -> Histogram.add h Float.nan));
    t "merge combines counts and extremes" (fun () ->
        let a = Histogram.create () and b = Histogram.create () in
        List.iter (Histogram.add a) [ 1.0; 2.0 ];
        List.iter (Histogram.add b) [ 0.5; 4.0 ];
        Histogram.merge_into a b;
        Alcotest.(check int) "count" 4 (Histogram.count a);
        feq "min" 0.5 (Histogram.min_value a);
        feq "max" 4.0 (Histogram.max_value a);
        feq "first (kept)" 1.0 (Histogram.first_sample a));
    t "merge into empty takes first" (fun () ->
        let a = Histogram.create () and b = Histogram.create () in
        Histogram.add b 2.0;
        Histogram.merge_into a b;
        feq "first" 2.0 (Histogram.first_sample a));
    t "merge into itself" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 1.0; 2.0; 5.0 ];
        Histogram.merge_into h h;
        Alcotest.(check int) "count" 6 (Histogram.count h);
        feq "sum" 16.0 (Histogram.sum h);
        feq "min" 1.0 (Histogram.min_value h);
        feq "max" 5.0 (Histogram.max_value h);
        feq "first" 1.0 (Histogram.first_sample h));
    t "rejects infinity" (fun () ->
        let h = Histogram.create () in
        Alcotest.check_raises "inf"
          (Invalid_argument "Histogram.add: sample must be finite and non-negative")
          (fun () -> Histogram.add h Float.infinity));
    t "zero is a sample" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 0.;
        Histogram.add h 2.0;
        Alcotest.(check int) "count" 2 (Histogram.count h);
        feq "min" 0. (Histogram.min_value h);
        feq "max" 2.0 (Histogram.max_value h);
        feq "first" 0. (Histogram.first_sample h));
    t "merging an empty summary changes nothing" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 3.0; 0.25 ];
        let before = Histogram.copy h in
        Histogram.merge_into h (Histogram.create ());
        Alcotest.(check int) "count" (Histogram.count before) (Histogram.count h);
        feq "sum" (Histogram.sum before) (Histogram.sum h);
        feq "min" (Histogram.min_value before) (Histogram.min_value h);
        feq "max" (Histogram.max_value before) (Histogram.max_value h);
        feq "first" (Histogram.first_sample before) (Histogram.first_sample h));
    t "of_stats with no samples is empty" (fun () ->
        let h = Histogram.of_stats ~count:0 ~sum:5.0 ~min:1.0 ~max:4.0 ~first:2.0 in
        Alcotest.(check int) "count" 0 (Histogram.count h);
        feq "sum" 0. (Histogram.sum h);
        feq "min" 0. (Histogram.min_value h);
        feq "max" 0. (Histogram.max_value h);
        Histogram.add h 7.0;
        feq "first" 7.0 (Histogram.first_sample h);
        feq "min after add" 7.0 (Histogram.min_value h));
    t "pp prints count, mean and extremes" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 1.0; 3.0 ];
        Alcotest.(check string) "text"
          "{n=2 mean=2.000e+00s min=1.000e+00s max=3.000e+00s}"
          (Format.asprintf "%a" Histogram.pp h));
    t "copy independent" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 1.0;
        let c = Histogram.copy h in
        Histogram.add h 100.0;
        Alcotest.(check int) "copy count" 1 (Histogram.count c));
  ]

let gen_samples =
  QCheck.(list_of_size (Gen.int_range 1 50) (map (fun f -> Float.abs f +. 1e-9) float))

(* zeros, values below 1 ns, the interior and very large values *)
let gen_sample =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.);
        (2, map (fun e -> 10. ** e) (float_range (-15.) (-9.)));
        (6, map (fun e -> 10. ** e) (float_range (-9.) 6.));
        (2, map (fun e -> 10. ** e) (float_range 9. 20.));
      ])

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* the five fields, in the order the trace file writes them *)
let fields h =
  [ float_of_int (Histogram.count h); Histogram.sum h; Histogram.min_value h;
    Histogram.max_value h; Histogram.first_sample h ]

let check_fields what got want =
  List.for_all2 bits_eq got want
  || QCheck.Test.fail_reportf "%s: %s <> %s" what
       (String.concat " " (List.map (Printf.sprintf "%h") got))
       (String.concat " " (List.map (Printf.sprintf "%h") want))

let of_list l =
  let h = Histogram.create () in
  List.iter (Histogram.add h) l;
  h

(* A merge tree: each node's right summary is merged into its left. *)
type tree = Leaf of float list | Node of tree * tree

let gen_tree =
  QCheck.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self n ->
           let leaf = map (fun l -> Leaf l) (list_size (int_range 0 6) gen_sample) in
           if n = 0 then leaf
           else frequency [ (1, leaf); (2, map2 (fun a b -> Node (a, b)) (self (n - 1)) (self (n - 1))) ]))

let rec build = function
  | Leaf l -> of_list l
  | Node (a, b) ->
      let h = build a in
      Histogram.merge_into h (build b);
      h

let rec samples = function Leaf l -> l | Node (a, b) -> samples a @ samples b

(* each leaf's samples summed left to right, then the partial sums added
   in merge order *)
let rec model_sum = function
  | Leaf l -> List.fold_left ( +. ) 0. l
  | Node (a, b) -> model_sum a +. model_sum b

let model tree =
  match samples tree with
  | [] -> [ 0.; 0.; 0.; 0.; 0. ]
  | x :: _ as l ->
      [ float_of_int (List.length l); model_sum tree; List.fold_left Float.min infinity l;
        List.fold_left Float.max neg_infinity l; x ]

let props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260705 |]))
    [
      QCheck.Test.make ~name:"mean = sum/count" ~count:200 gen_samples (fun l ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          let n = List.length l in
          Float.abs
            ((Histogram.sum h /. float_of_int n) -. Histogram.mean h)
          < 1e-9);
      QCheck.Test.make ~name:"merge mean = pooled mean" ~count:200
        (QCheck.pair gen_samples gen_samples) (fun (a, b) ->
          let ha = Histogram.create () and hb = Histogram.create () in
          List.iter (Histogram.add ha) a;
          List.iter (Histogram.add hb) b;
          Histogram.merge_into ha hb;
          let pooled =
            List.fold_left ( +. ) 0. (a @ b) /. float_of_int (List.length a + List.length b)
          in
          Float.abs (Histogram.mean ha -. pooled) <= 1e-9 *. (1. +. pooled));
      QCheck.Test.make ~name:"self-merge preserves mean" ~count:100 gen_samples
        (fun l ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          let m = Histogram.mean h in
          Histogram.merge_into h (Histogram.copy h);
          Float.abs (Histogram.mean h -. m) <= 1e-9 *. (1. +. m));
      QCheck.Test.make ~name:"of_stats round-trips all five fields bit for bit" ~count:500
        QCheck.(make Gen.(list_size (int_range 0 20) gen_sample))
        (fun l ->
          let h = of_list l in
          let count = Histogram.count h and sum = Histogram.sum h
          and min = Histogram.min_value h and max = Histogram.max_value h
          and first = Histogram.first_sample h in
          check_fields "of_stats" (fields (Histogram.of_stats ~count ~sum ~min ~max ~first)) (fields h));
      QCheck.Test.make ~name:"merge trees match the sample-list model" ~count:1000
        (QCheck.make gen_tree)
        (fun tree -> check_fields "merge tree" (fields (build tree)) (model tree));
    ]

let suite = unit_tests @ props
