(* Deterministic log-linear quantile histograms.

   The same per-domain accumulator design as [Metrics]/[Cost], but the
   accumulated value is a fixed-geometry bucketed histogram per name:
   each domain owns a (name -> local) table held in a [Domain.DLS]
   slot, observations tick integer bucket counters in the owner's
   table without any lock, and readers merge every registered table
   under [mu].

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

(* ------------------------------------------------------------------ *)
(* Per-domain accumulators.                                           *)

(* Mixed int/float record: the float fields are boxed, so every store
   below is a single word-sized write — concurrent readers may observe
   a stale value mid-merge but never a torn one, exactly like the
   [Metrics] counter arrays.  Exactness is claimed after [Domain.join]
   (or for a domain's own table), same as [Metrics]. *)
type local = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable minv : float;
  mutable maxv : float;
}

let fresh_local () =
  {
    buckets = Array.make n_buckets 0;
    count = 0;
    sum = 0.0;
    sumsq = 0.0;
    minv = Float.infinity;
    maxv = Float.neg_infinity;
  }

let mu = Mutex.create ()

(* Every per-domain (name -> local) table ever handed out.  Tables
   outlive their domain so joined children keep contributing.  New
   names are added under [mu] so a merging reader never races a table
   resize; observations on existing names are lock-free. *)
let domains : (string, local) Hashtbl.t list ref =
  ref [] [@@vmor.sync "guarded by mu"]

let slot =
  Domain.DLS.new_key (fun () ->
      let tbl : (string, local) Hashtbl.t = Hashtbl.create 16 in
      Mutex.protect mu (fun () -> domains := tbl :: !domains);
      tbl)

let observe k v =
  let tbl = Domain.DLS.get slot in
  let h =
    match Hashtbl.find_opt tbl k with
    | Some h -> h
    | None ->
      let h = fresh_local () in
      (* Insertion may resize the table; exclude concurrent mergers. *)
      Mutex.protect mu (fun () -> Hashtbl.add tbl k h);
      h
  in
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  h.sumsq <- h.sumsq +. (v *. v);
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v

(* ------------------------------------------------------------------ *)
(* Merged views.                                                      *)

type view = {
  buckets : int array;
  count : int;
  sum : float;
  sumsq : float;
  minv : float;
  maxv : float;
}

let merge_into (acc : local) (h : local) =
  for i = 0 to n_buckets - 1 do
    acc.buckets.(i) <- acc.buckets.(i) + h.buckets.(i)
  done;
  acc.count <- acc.count + h.count;
  acc.sum <- acc.sum +. h.sum;
  acc.sumsq <- acc.sumsq +. h.sumsq;
  if h.minv < acc.minv then acc.minv <- h.minv;
  if h.maxv > acc.maxv then acc.maxv <- h.maxv

let view_of (acc : local) =
  {
    buckets = acc.buckets;
    count = acc.count;
    sum = acc.sum;
    sumsq = acc.sumsq;
    minv = acc.minv;
    maxv = acc.maxv;
  }

let view k =
  Mutex.protect mu (fun () ->
      let acc = fresh_local () in
      let found = ref false in
      List.iter
        (fun tbl ->
          match Hashtbl.find_opt tbl k with
          | Some h ->
            found := true;
            merge_into acc h
          | None -> ())
        !domains;
      if !found then Some (view_of acc) else None)

let all () =
  Mutex.protect mu (fun () ->
      let accs : (string, local) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun k h ->
              let acc =
                match Hashtbl.find_opt accs k with
                | Some acc -> acc
                | None ->
                  let acc = fresh_local () in
                  Hashtbl.add accs k acc;
                  acc
              in
              merge_into acc h)
            tbl)
        !domains;
      Hashtbl.fold (fun k acc l -> (k, view_of acc) :: l) accs [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset () =
  Mutex.protect mu (fun () ->
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun _ (h : local) ->
              Array.fill h.buckets 0 n_buckets 0;
              h.count <- 0;
              h.sum <- 0.0;
              h.sumsq <- 0.0;
              h.minv <- Float.infinity;
              h.maxv <- Float.neg_infinity)
            tbl)
        !domains)

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
