(* Deterministic log-linear quantile histograms.

   A view over the histogram tables of the per-domain [Registry] store
   (DESIGN.md section 8): this module owns the bucket geometry, the
   merged [view] and the quantile/mean/stddev maths; observations tick
   integer bucket counters in the calling domain's table without any
   lock.

   Bucket geometry is fixed at compile time and value-independent:
   [sub_buckets] linear sub-buckets per power-of-two octave over the
   exponent range [e_min, e_max), plus one underflow and one overflow
   bucket.  The sub-bucket index comes from [Float.frexp]: for
   v = m * 2^e with m in [0.5, 1), the scaled mantissa 2m - 1 is exact
   (Sterbenz subtraction of values within a factor of two) and the
   multiplication by [sub_buckets] (a power of two) is exact, so the
   bucket index is a pure function of the value's bits — no rounding
   mode, no library, no platform dependence.  Bucket counts are
   integers and integer addition is associative, so the merged counts
   (and every quantile derived from them) are bit-identical across
   runs, domain counts and merge orders.  The float moments
   (sum/sumsq) are *not* order-exact: float addition is not
   associative, so only the bucket counts and quantiles carry the
   determinism guarantee (DESIGN.md section 16).

   A bucket covers the half-open interval [lower, upper): a value
   exactly on a dyadic boundary counts toward the higher bucket.  The
   rendered [le] labels are the nominal upper edges. *)

let sub_buckets = 4
let e_min = -40
let e_max = 40

let n_buckets = ((e_max - e_min) * sub_buckets) + 2

(* Smallest/largest regularly-bucketed magnitudes: [2^(e_min-1), 2^(e_max-1)). *)
let lowest_bound = Float.ldexp 1.0 (e_min - 1)
let highest_bound = Float.ldexp 1.0 (e_max - 1)

let bucket_index v =
  if not (v >= lowest_bound) then 0 (* below range, <= 0, or NaN *)
  else if v >= highest_bound then n_buckets - 1
  else begin
    let m, e = Float.frexp v in
    (* m in [0.5, 1): both steps below are exact float operations. *)
    let j = int_of_float ((2.0 *. m -. 1.0) *. float_of_int sub_buckets) in
    1 + (((e - e_min) * sub_buckets) + j)
  end

let upper_bound i =
  if i <= 0 then lowest_bound
  else if i >= n_buckets - 1 then Float.infinity
  else begin
    let k = i - 1 in
    let o = k / sub_buckets and j = k mod sub_buckets in
    Float.ldexp
      (1.0 +. (float_of_int (j + 1) /. float_of_int sub_buckets))
      (e_min + o - 1)
  end

let observe k v = Registry.observe ~n_buckets k (bucket_index v) v

type view = Registry.hist = private {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable minv : float;
  mutable maxv : float;
}

let all = Registry.hists

let view k = List.assoc_opt k (all ())

(* ------------------------------------------------------------------ *)
(* Derived statistics.                                                *)

let mean (v : view) =
  if v.count = 0 then Float.nan else v.sum /. float_of_int v.count

let stddev (v : view) =
  if v.count = 0 then Float.nan
  else begin
    let m = mean v in
    let var = (v.sumsq /. float_of_int v.count) -. (m *. m) in
    sqrt (Float.max 0.0 var)
  end

let nonzero_buckets (v : view) =
  Array.fold_left (fun acc c -> if c > 0 then acc + 1 else acc) 0 v.buckets

(* Closed-form quantile over the bucket boundaries: find the bucket
   holding the ceil(q * count)-th smallest observation and interpolate
   linearly inside it by integer rank.  A pure function of the integer
   bucket counts, hence bit-identical whenever they are. *)
let quantile (v : view) q =
  if v.count = 0 then Float.nan
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int v.count)) in
      if r < 1 then 1 else if r > v.count then v.count else r
    in
    let rec go i cum =
      if i >= n_buckets then v.maxv (* unreachable when counts are consistent *)
      else begin
        let c = v.buckets.(i) in
        if cum + c >= rank then begin
          let lo = if i = 0 then 0.0 else upper_bound (i - 1) in
          let hi = upper_bound i in
          if Float.is_finite hi then
            lo
            +. (hi -. lo)
               *. (float_of_int (rank - cum) /. float_of_int c)
          else lo (* overflow bucket: report its lower edge *)
        end
        else go (i + 1) (cum + c)
      end
    in
    go 0 0
  end
