(** AT-NMOR — the paper's proposed nonlinear MOR via associated
    transforms of the high-order Volterra transfer functions.

    Moment vectors of the single-[s] associated [H1(s)], [H2(s)],
    [H3(s)] about one expansion point are stacked and orthonormalized
    (with deflation) into the projection basis, so preserving
    [k1/k2/k3] moments costs [O(k1+k2+k3)] basis vectors — against
    [O(k1 + k2³ + k3⁴)] for multivariate matching ({!Norm}). *)

open La
open Volterra

type orders = { k1 : int; k2 : int; k3 : int }
(** How many moments of each transfer-function order to preserve. *)

type result = {
  basis : Mat.t;  (** [n × q] orthonormal projection matrix *)
  rom : Qldae.t;  (** reduced-order model of dimension [q] *)
  orders : orders;
      (** orders actually realized (lower than requested after
          degradation) *)
  s0 : float;  (** expansion point used (nudged off the request when it
                   hit a pole) *)
  raw_moments : int;  (** moment vectors generated before deflation *)
  reduction_seconds : float;
      (** moment generation + projection wall time — the "Arnoldi" row
          of the paper's Table 1 *)
  degradation : Robust.Report.t;
      (** recovery events behind this ROM: empty for a clean run; nudge
          / fallback events for a recovered one;
          [Robust.Report.degraded] is true when moment orders were
          dropped *)
}

(** Reduced order [q]. *)
val order : result -> int

(** [require_orders ctx orders] rejects negative moment orders with
    [Invalid_argument] (always on). Every reducer that takes
    {!orders} checks them through it. *)
val require_orders : string -> orders -> unit

(** Map the numerical layer's exceptions ([Lu.Singular],
    [Ksolve.Near_singular], non-finite [Invalid_argument] contracts,
    [Robust.Error.Error]) to the typed taxonomy, located at [loc];
    [None] for foreign exceptions. The one classifier of the reducers'
    recovery walks ({!reduce}, {!Autoselect.reduce},
    {!Balanced.try_reduce}). *)
val classify : loc:Robust.Error.location -> exn -> Robust.Error.t option

(** The tail every moment-matching reducer ends in ({!reduce},
    {!reduce_multipoint}, {!reduce_sylvester}, {!Norm.reduce},
    {!Autoselect.reduce}): check the orthonormal [basis] is finite
    (VMOR_CHECKS-gated, failing as [ctx ^ ": basis"]), Galerkin-project
    the QLDAE onto it, set the [reduced_order] gauge and observe
    [reduction_seconds] (measured from [t_start]), emit the
    {!Romdiag.emit_health} moment-match block on [side], the full
    model's engine and series heads as the reducer computed them, when
    [Obs.Health.active ()], and build the {!result}. *)
val finish :
  ctx:string ->
  t_start:float ->
  s0:float ->
  orders:orders ->
  raw_moments:int ->
  degradation:Robust.Report.t ->
  side:Romdiag.side ->
  Qldae.t ->
  Mat.t ->
  result

(** Reduce by associated-transform moment matching. [s0] defaults as in
    {!Volterra.Assoc.create}; [tol] is the deflation threshold;
    [h3_triples] selects MISO third-order coverage (default [`All]).

    Failures degrade gracefully instead of escaping: at each order
    level the [policy]'s nudge candidates [s0·(1+ε·2ʲ)] are walked by
    {!Robust.Policy.walk_nudges}; when every candidate fails at the
    requested orders the H3 (then H2) moments are dropped
    (["degrade:h3"], ["degrade:h2"]) and a lower-order basis is
    returned, with the full story in [degradation]. [fault] threads a
    {!Robust.Faultify} plan into the moment engine (each attempt arms a
    fresh counter). Raises [Robust.Error.Error Budget_exhausted] only
    when every (orders, point) combination fails. *)
val reduce :
  ?policy:Robust.Policy.t ->
  ?fault:Robust.Faultify.plan ->
  ?s0:float ->
  ?tol:float ->
  ?h3_triples:[ `All | `Diagonal ] ->
  orders:orders ->
  Qldae.t ->
  result

(** Multipoint expansion (paper §4, third bullet): union of the moment
    subspaces generated at each expansion point in [points]. The
    reported [s0] is the first point. Per-point engines record their
    recoveries into [degradation], in point order, but do not nudge. *)
val reduce_multipoint :
  ?tol:float ->
  ?h3_triples:[ `All | `Diagonal ] ->
  points:float list ->
  orders:orders ->
  Qldae.t ->
  result

(** Ablation of the paper's eq. (18): generate the second-order moments
    from the two Sylvester-decoupled branches
    [(sI−G1)⁻¹(d − Πw) + Π(sI−⊕²G1)⁻¹w] instead of the block
    realization. SISO only; densifies [G2], so use on moderate [n]. *)
val reduce_sylvester :
  ?s0:float -> ?tol:float -> orders:orders -> Qldae.t -> result
