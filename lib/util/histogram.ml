(* Exponential buckets: bucket i covers [base * r^i, base * r^(i+1)) with
   base = 1 ns and ratio r = 2^(1/2), giving ~4% worst-case relative error
   on reconstructed means over a 1ns .. >1e9s range with 128 buckets.

   A summary stores only its occupied bucket range: most hold one sample
   (one per traced MPI call until inter-node merging), so a dense
   128-slot array would be ~10x the rest of the record.  Every bucket
   outside the range is zero, which is all [quantile] and [scale] ever
   read there, so answers are those of the dense layout. *)

let n_buckets = 128
let base = 1e-9
let log_ratio = 0.5 *. log 2.

(* All-float, so OCaml stores the fields unboxed and updating them never
   allocates. *)
type stats = {
  mutable sum : float;
  mutable sumsq : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable first : float;
}

type t = {
  mutable count : int;
  st : stats;
  mutable blo : int; (* bucket index of counts.(0) *)
  mutable counts : int array; (* buckets blo ..; [||] when none occupied *)
}

let create () =
  {
    count = 0;
    st = { sum = 0.; sumsq = 0.; min_v = infinity; max_v = neg_infinity; first = 0. };
    blo = 0;
    counts = [||];
  }

(* Grow the stored range to cover buckets [lo..hi]. *)
let cover t lo hi =
  let n = Array.length t.counts in
  if n = 0 then begin
    t.blo <- lo;
    t.counts <- Array.make (hi - lo + 1) 0
  end
  else if lo < t.blo || hi >= t.blo + n then begin
    let lo' = min lo t.blo and hi' = max hi (t.blo + n - 1) in
    let a = Array.make (hi' - lo' + 1) 0 in
    Array.blit t.counts 0 a (t.blo - lo') n;
    t.blo <- lo';
    t.counts <- a
  end

let bump t i n =
  cover t i i;
  t.counts.(i - t.blo) <- t.counts.(i - t.blo) + n

let bucket_index x =
  if x < base then 0
  else
    let i = int_of_float (log (x /. base) /. log_ratio) in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

(* Midpoint (geometric mean) of bucket i, used for reconstruction. *)
let bucket_mid i = base *. exp ((float_of_int i +. 0.5) *. log_ratio)

let add t x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg "Histogram.add: sample must be finite and non-negative";
  let s = t.st in
  if t.count = 0 then s.first <- x;
  t.count <- t.count + 1;
  s.sum <- s.sum +. x;
  s.sumsq <- s.sumsq +. (x *. x);
  if x < s.min_v then s.min_v <- x;
  if x > s.max_v then s.max_v <- x;
  bump t (bucket_index x) 1

let count t = t.count
let sum t = t.st.sum
let min_value t = if t.count = 0 then 0. else t.st.min_v
let max_value t = if t.count = 0 then 0. else t.st.max_v
let mean t = if t.count = 0 then 0. else t.st.sum /. float_of_int t.count

let variance t =
  if t.count = 0 then 0.
  else
    let m = mean t in
    let v = (t.st.sumsq /. float_of_int t.count) -. (m *. m) in
    if v < 0. then 0. else v

let stddev t = sqrt (variance t)

let first_sample t = t.st.first

let rest_mean t =
  if t.count <= 1 then mean t
  else (t.st.sum -. t.st.first) /. float_of_int (t.count - 1)

let quantile t q =
  if t.count = 0 then 0.
  else if q <= 0. then min_value t
  else if q >= 1. then max_value t
  else begin
    (* buckets below the range add nothing and cannot reach a positive
       target; past it the walk would only re-add zeros *)
    let target = q *. float_of_int t.count in
    let rec find k seen =
      if k >= Array.length t.counts then max_value t
      else
        let seen' = seen +. float_of_int t.counts.(k) in
        if seen' >= target then bucket_mid (t.blo + k) else find (k + 1) seen'
    in
    let v = find 0 0. in
    Float.min (Float.max v (min_value t)) (max_value t)
  end

let draw t ~u =
  if t.count = 0 then 0.
  else
    let u = if u < 0. then 0. else if u >= 1. then Float.pred 1. else u in
    quantile t u

let of_stats ~count ~sum ~min ~max ~first =
  let t = create () in
  if count > 0 then begin
    t.count <- count;
    let s = t.st in
    s.sum <- sum;
    let mean = sum /. float_of_int count in
    s.sumsq <- float_of_int count *. mean *. mean;
    s.min_v <- min;
    s.max_v <- max;
    s.first <- first;
    bump t (bucket_index mean) count
  end;
  t

let merge_into t other =
  if other.count > 0 then begin
    let s = t.st and o = other.st in
    if t.count = 0 then s.first <- o.first;
    t.count <- t.count + other.count;
    s.sum <- s.sum +. o.sum;
    s.sumsq <- s.sumsq +. o.sumsq;
    if o.min_v < s.min_v then s.min_v <- o.min_v;
    if o.max_v > s.max_v then s.max_v <- o.max_v;
    let n = Array.length other.counts in
    if n > 0 then begin
      (* read [other]'s fields before [cover]: it may be [t] itself *)
      let olo = other.blo and oc = other.counts in
      cover t olo (olo + n - 1);
      let d = olo - t.blo in
      for k = 0 to n - 1 do
        t.counts.(d + k) <- t.counts.(d + k) + oc.(k)
      done
    end
  end

let copy t = { t with st = { t.st with sum = t.st.sum }; counts = Array.copy t.counts }

let scale t k =
  if k < 0. then invalid_arg "Histogram.scale: negative factor";
  let s = create () in
  if t.count > 0 then begin
    s.count <- t.count;
    let ss = s.st and ts = t.st in
    ss.sum <- ts.sum *. k;
    ss.sumsq <- ts.sumsq *. k *. k;
    ss.min_v <- ts.min_v *. k;
    ss.max_v <- ts.max_v *. k;
    ss.first <- ts.first *. k;
    (* Rebucket by shifting: scaling by k moves log(x) by log(k). *)
    let shift = if k = 0. then - n_buckets else int_of_float (Float.round (log k /. log_ratio)) in
    let clamp j = if j < 0 then 0 else if j >= n_buckets then n_buckets - 1 else j in
    Array.iteri
      (fun i n -> if n > 0 then bump s (clamp (t.blo + i + shift)) n)
      t.counts
  end;
  s

let pp ppf t =
  Format.fprintf ppf "{n=%d mean=%.3es min=%.3es max=%.3es}"
    t.count (mean t) (min_value t) (max_value t)
