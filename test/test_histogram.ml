open Util

let t name f = Alcotest.test_case name `Quick f
let feq = Alcotest.(check (float 1e-9))
(* bucketed quantiles are accurate to one bucket width (~20%) *)
let feq_rel msg a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %g ~ %g" msg a b)
    true
    (Float.abs (a -. b) <= 0.2 *. Float.max 1e-12 (Float.abs a))

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
        feq "first" 0.5 (Histogram.first_sample h);
        feq "variance" 0. (Histogram.variance h));
    t "mean/min/max exact" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 1.0; 2.0; 3.0; 6.0 ];
        feq "mean" 3.0 (Histogram.mean h);
        feq "min" 1.0 (Histogram.min_value h);
        feq "max" 6.0 (Histogram.max_value h);
        feq "sum" 12.0 (Histogram.sum h));
    t "first vs rest" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 10.0; 1.0; 1.0; 1.0 ];
        feq "first" 10.0 (Histogram.first_sample h);
        feq "rest" 1.0 (Histogram.rest_mean h));
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
    t "quantile bounds" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 0.001; 0.002; 0.004; 0.008 ];
        feq "q0" 0.001 (Histogram.quantile h 0.);
        feq "q1" 0.008 (Histogram.quantile h 1.);
        let med = Histogram.quantile h 0.5 in
        Alcotest.(check bool) "median in range" true (med >= 0.001 && med <= 0.008));
    t "scale" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 1.0; 3.0 ];
        let s = Histogram.scale h 0.5 in
        feq "mean" 1.0 (Histogram.mean s);
        feq "min" 0.5 (Histogram.min_value s);
        feq "max" 1.5 (Histogram.max_value s);
        Alcotest.(check int) "count" 2 (Histogram.count s));
    t "scale by zero" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 5.0;
        let s = Histogram.scale h 0. in
        feq "mean" 0. (Histogram.mean s));
    t "copy independent" (fun () ->
        let h = Histogram.create () in
        Histogram.add h 1.0;
        let c = Histogram.copy h in
        Histogram.add h 100.0;
        Alcotest.(check int) "copy count" 1 (Histogram.count c));
    t "draw within range" (fun () ->
        let h = Histogram.create () in
        List.iter (Histogram.add h) [ 0.01; 0.02; 0.03 ];
        List.iter
          (fun u ->
            let v = Histogram.draw h ~u in
            Alcotest.(check bool) "in range" true (v >= 0.01 && v <= 0.03))
          [ 0.0; 0.3; 0.7; 0.99 ]);
    t "mean reconstruction error small" (fun () ->
        (* bucketing must reconstruct quantiles within ~5% *)
        let h = Histogram.create () in
        for i = 1 to 1000 do
          Histogram.add h (float_of_int i *. 1e-6)
        done;
        feq_rel "median" 500e-6 (Histogram.quantile h 0.5));
  ]

let gen_samples =
  QCheck.(list_of_size (Gen.int_range 1 50) (map (fun f -> Float.abs f +. 1e-9) float))

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
      QCheck.Test.make ~name:"quantiles monotone" ~count:100 gen_samples (fun l ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          Histogram.quantile h 0.25 <= Histogram.quantile h 0.75);
      QCheck.Test.make ~name:"scale scales mean" ~count:100
        (QCheck.pair gen_samples (QCheck.float_range 0. 10.)) (fun (l, k) ->
          let h = Histogram.create () in
          List.iter (Histogram.add h) l;
          let s = Histogram.scale h k in
          Float.abs (Histogram.mean s -. (k *. Histogram.mean h))
          <= 1e-9 *. (1. +. Histogram.mean h));
    ]

(* ---------------------------------------------------------------- *)
(* Differential: range-sized buckets against the dense 128-bucket     *)
(* oracle, bit for bit                                                *)

module R = Reference.Histogram

(* zeros, values below 1 ns (bucket 0), the interior, and values past
   bucket 127's lower edge (1 ns * 2^63.5, clamped to the last bucket) *)
let gen_sample =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.);
        (2, map (fun e -> 10. ** e) (float_range (-15.) (-9.)));
        (6, map (fun e -> 10. ** e) (float_range (-9.) 6.));
        (2, map (fun e -> 10. ** e) (float_range 9. 20.));
      ])

(* a merge chain: the first summary absorbs the rest in order; any of
   them may be empty *)
let gen_chain = QCheck.Gen.(list_size (int_range 1 5) (list_size (int_range 0 12) gen_sample))

let gen_scale =
  QCheck.Gen.(
    oneof [ return 0.; return 1.; return 0.5; float_range 0. 4.; map (fun e -> 10. ** e) (float_range (-12.) 12.) ])

let grid = [ -0.5; 0.; 1e-9; 0.01; 0.1; 0.25; 0.333; 0.5; 0.6; 0.75; 0.9; 0.99; 0.999999; 1.; 1.5 ]

let bits_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* every observable of the two summaries, as one comparable list *)
let observe_fast h =
  [ float_of_int (Histogram.count h); Histogram.sum h; Histogram.mean h; Histogram.variance h;
    Histogram.min_value h; Histogram.max_value h; Histogram.first_sample h; Histogram.rest_mean h ]
  @ List.map (Histogram.quantile h) grid
  @ List.map (fun u -> Histogram.draw h ~u) grid

let observe_ref h =
  [ float_of_int (R.count h); R.sum h; R.mean h; R.variance h; R.min_value h; R.max_value h;
    R.first_sample h; R.rest_mean h ]
  @ List.map (R.quantile h) grid
  @ List.map (fun u -> R.draw h ~u) grid

let agree what f r =
  let a = observe_fast f and b = observe_ref r in
  if not (List.for_all2 bits_eq a b) then
    QCheck.Test.fail_reportf "%s: %s <> %s" what
      (String.concat " " (List.map (Printf.sprintf "%h") a))
      (String.concat " " (List.map (Printf.sprintf "%h") b))

let differential =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20261018 |]))
    [
      QCheck.Test.make ~name:"range-sized histogram = dense oracle, bit for bit" ~count:1000
        QCheck.(make Gen.(triple gen_chain gen_scale gen_sample))
        (fun (chain, k, extra) ->
          let build samples =
            let f = Histogram.create () and r = R.create () in
            List.iter (fun x -> Histogram.add f x; R.add r x) samples;
            (f, r)
          in
          let hs = List.map build chain in
          let f0, r0 = List.hd hs in
          List.iter
            (fun (f, r) -> Histogram.merge_into f0 f; R.merge_into r0 r)
            (List.tl hs);
          agree "merge chain" f0 r0;
          (* merging an empty summary, and into an empty one *)
          Histogram.merge_into f0 (Histogram.create ());
          R.merge_into r0 (R.create ());
          let fe = Histogram.create () and re = R.create () in
          Histogram.merge_into fe f0;
          R.merge_into re r0;
          agree "into empty" fe re;
          (* a copy is independent of its source *)
          let fc = Histogram.copy f0 and rc = R.copy r0 in
          Histogram.add fc extra;
          R.add rc extra;
          agree "copy after add" fc rc;
          agree "source after copy" f0 r0;
          Histogram.merge_into f0 f0;
          R.merge_into r0 r0;
          agree "self merge" f0 r0;
          agree "scale" (Histogram.scale f0 k) (R.scale r0 k);
          let count = Histogram.count f0 and sum = Histogram.sum f0
          and min = Histogram.min_value f0 and max = Histogram.max_value f0
          and first = Histogram.first_sample f0 in
          agree "of_stats"
            (Histogram.of_stats ~count ~sum ~min ~max ~first)
            (R.of_stats ~count ~sum ~min ~max ~first);
          true);
    ]

let suite = unit_tests @ props @ differential
