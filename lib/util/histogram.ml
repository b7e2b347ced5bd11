(* All-float, so OCaml stores the fields unboxed: a summary is one 6-word
   block and updating it never allocates.  The count is a float for the
   same reason; it stays exact below 2^53 samples. *)
type t = {
  mutable n : float;
  mutable sum : float;
  mutable min_v : float;
  mutable max_v : float;
  mutable first : float;
}

let create () = { n = 0.; sum = 0.; min_v = infinity; max_v = neg_infinity; first = 0. }

let add t x =
  if not (Float.is_finite x) || x < 0. then
    invalid_arg "Histogram.add: sample must be finite and non-negative";
  if t.n = 0. then t.first <- x;
  t.n <- t.n +. 1.;
  t.sum <- t.sum +. x;
  if x < t.min_v then t.min_v <- x;
  if x > t.max_v then t.max_v <- x

let count t = int_of_float t.n
let sum t = t.sum
let min_value t = if t.n = 0. then 0. else t.min_v
let max_value t = if t.n = 0. then 0. else t.max_v
let mean t = if t.n = 0. then 0. else t.sum /. t.n
let first_sample t = t.first

let of_stats ~count ~sum ~min ~max ~first =
  if count > 0 then { n = float_of_int count; sum; min_v = min; max_v = max; first }
  else create ()

let merge_into t other =
  if other.n > 0. then begin
    if t.n = 0. then t.first <- other.first;
    t.n <- t.n +. other.n;
    t.sum <- t.sum +. other.sum;
    if other.min_v < t.min_v then t.min_v <- other.min_v;
    if other.max_v > t.max_v then t.max_v <- other.max_v
  end

let copy t = { t with n = t.n }

let pp ppf t =
  Format.fprintf ppf "{n=%d mean=%.3es min=%.3es max=%.3es}"
    (count t) (mean t) (min_value t) (max_value t)
