(** Deterministic log-linear quantile histograms.

    Every named histogram, the per-span latency distributions
    included: a fixed-geometry bucketed histogram per name, a view over the histogram tables of the per-domain
    {!Registry} store, so concurrent domains never contend on the hot
    path.

    The geometry is 4 linear sub-buckets per power-of-two
    octave over binary exponents [[e_min, e_max)], plus an underflow
    and an overflow bucket.  The bucket index is a pure function of
    the value's bits (exact [frexp]-based mantissa scaling), bucket
    counts are integers, and integer addition is associative — so
    merged bucket counts and every quantile derived from them are
    bit-identical across repeated runs, [--domains 1] vs [4], and
    merge orders.  The float moments ([sum]/[sumsq]) do {e not} carry
    that guarantee (float addition is order-sensitive).  See DESIGN.md
    section 16.

    Buckets cover half-open ranges [[lower, upper)]: a value exactly
    on a dyadic boundary counts toward the higher bucket. *)

val n_buckets : int
(** Total bucket count including underflow (index 0) and overflow
    (index [n_buckets - 1]). *)

val bucket_index : float -> int
(** Bucket for a value.  Values below the range (including zero,
    negatives and NaN) land in the underflow bucket; values at or
    above the top edge (including infinities) in the overflow
    bucket. *)

val upper_bound : int -> float
(** Nominal upper edge of a bucket (exclusive: bucket [i] holds
    [upper_bound (i - 1) <= v < upper_bound i]).
    [upper_bound (n_buckets - 1)] is [infinity]. *)

val observe : string -> float -> unit
(** Feed one observation into the named histogram on the calling
    domain's accumulator: one bucket tick plus count/sum/sumsq/min/max
    updates, lock-free for already-seen names.  A no-op while
    {!Metrics.set_enabled} is [false]. *)

type view = Registry.hist = private {
  buckets : int array;  (** merged integer bucket counts, length {!n_buckets} *)
  mutable count : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable minv : float;  (** [infinity] when empty *)
  mutable maxv : float;  (** [neg_infinity] when empty *)
}
(** A merged histogram: a fresh copy, read-only outside {!Registry}. *)

val view : string -> view option
(** Merged process-wide histogram for one name; [None] if never
    observed. *)

val all : unit -> (string * view) list
(** Every named histogram, merged, sorted by name. *)

val quantile : view -> float -> float
(** [quantile v q] for [q] in [[0, 1]]: locate the [ceil (q * count)]-th
    smallest observation's bucket and interpolate linearly inside it
    by integer rank.  A pure function of the integer bucket counts —
    bit-identical whenever they are.  [nan] when empty; observations
    in the overflow bucket report its lower edge. *)

val mean : view -> float
(** [sum / count]; [nan] when empty. *)

val stddev : view -> float
(** Population standard deviation from [sum]/[sumsq], clamped at zero
    against cancellation; [nan] when empty. *)

val nonzero_buckets : view -> int
(** Number of buckets with a nonzero count — a compact deterministic
    fingerprint of the distribution's shape. *)
