(* The original computation-time summary: every histogram carries a dense
   128-slot bucket array, and the float statistics live in a mixed record,
   so each update boxes a float.  The oracle {!Util.Histogram}'s
   range-sized buckets must match bit for bit.

   Exponential buckets: bucket i covers [base * r^i, base * r^(i+1)) with
   base = 1 ns and ratio r = 2^(1/2), giving ~4% worst-case relative error
   on reconstructed means over a 1ns .. >1e9s range with 128 buckets. *)

let n_buckets = 128
let base = 1e-9
let log_ratio = 0.5 *. log 2.

type t = {
  mutable count : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable first : float;
  mutable blo : int; (* lowest possibly-nonzero bucket; n_buckets when none *)
  mutable bhi : int; (* highest possibly-nonzero bucket; -1 when none *)
  buckets : int array; (* bucket 0 additionally holds all x < base *)
}

let create () =
  { count = 0; sum = 0.; sumsq = 0.; min_v = infinity; max_v = neg_infinity;
    first = 0.; blo = n_buckets; bhi = -1; buckets = Array.make n_buckets 0 }

let note_bucket t i =
  if i < t.blo then t.blo <- i;
  if i > t.bhi then t.bhi <- i

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
  if t.count = 0 then t.first <- x;
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  t.sumsq <- t.sumsq +. (x *. x);
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x;
  let i = bucket_index x in
  t.buckets.(i) <- t.buckets.(i) + 1;
  note_bucket t i

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0. else t.min_v
let max_value t = if t.count = 0 then 0. else t.max_v
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

let variance t =
  if t.count = 0 then 0.
  else
    let m = mean t in
    let v = (t.sumsq /. float_of_int t.count) -. (m *. m) in
    if v < 0. then 0. else v

let stddev t = sqrt (variance t)

let first_sample t = t.first

let rest_mean t =
  if t.count <= 1 then mean t
  else (t.sum -. t.first) /. float_of_int (t.count - 1)

let quantile t q =
  if t.count = 0 then 0.
  else if q <= 0. then min_value t
  else if q >= 1. then max_value t
  else begin
    let target = q *. float_of_int t.count in
    let rec find i seen =
      if i >= n_buckets then max_value t
      else
        let seen' = seen +. float_of_int t.buckets.(i) in
        if seen' >= target then bucket_mid i else find (i + 1) seen'
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
    t.sum <- sum;
    let mean = sum /. float_of_int count in
    t.sumsq <- float_of_int count *. mean *. mean;
    t.min_v <- min;
    t.max_v <- max;
    t.first <- first;
    let i = bucket_index mean in
    t.buckets.(i) <- count;
    note_bucket t i
  end;
  t

let merge_into t other =
  if other.count > 0 then begin
    if t.count = 0 then t.first <- other.first;
    t.count <- t.count + other.count;
    t.sum <- t.sum +. other.sum;
    t.sumsq <- t.sumsq +. other.sumsq;
    if other.min_v < t.min_v then t.min_v <- other.min_v;
    if other.max_v > t.max_v then t.max_v <- other.max_v;
    (* only the other side's occupied bucket range needs touching — merge
       runs once per absorbed RSD instance, so a full 128-bucket walk here
       dominates inter-node merging of high-RSD traces *)
    for i = other.blo to other.bhi do
      t.buckets.(i) <- t.buckets.(i) + other.buckets.(i)
    done;
    if other.blo < t.blo then t.blo <- other.blo;
    if other.bhi > t.bhi then t.bhi <- other.bhi
  end

let copy t = { t with buckets = Array.copy t.buckets }

let scale t k =
  if k < 0. then invalid_arg "Histogram.scale: negative factor";
  let s = create () in
  if t.count > 0 then begin
    s.count <- t.count;
    s.sum <- t.sum *. k;
    s.sumsq <- t.sumsq *. k *. k;
    s.min_v <- t.min_v *. k;
    s.max_v <- t.max_v *. k;
    s.first <- t.first *. k;
    (* Rebucket by shifting: scaling by k moves log(x) by log(k). *)
    let shift = if k = 0. then - n_buckets else int_of_float (Float.round (log k /. log_ratio)) in
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          let j = i + shift in
          let j = if j < 0 then 0 else if j >= n_buckets then n_buckets - 1 else j in
          s.buckets.(j) <- s.buckets.(j) + n;
          note_bucket s j
        end)
      t.buckets
  end;
  s

let pp ppf t =
  Format.fprintf ppf "{n=%d mean=%.3es min=%.3es max=%.3es}"
    t.count (mean t) (min_value t) (max_value t)
