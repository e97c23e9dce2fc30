(** Automatic moment-order selection — the paper's §4 first bullet:
    replace NORM's ad-hoc order choice with "Hankel singular values or
    a similar measure inherent to linear MOR".

    {!suggest_k1} uses genuine Hankel singular values of the linear
    subsystem (needs a Hurwitz [G1]); {!reduce} grows every moment
    series until its next vector stops contributing a new direction to
    the projection subspace (the subspace angle as the singular-value
    proxy), which also works for the structurally singular [G1] of
    quadratized diode circuits. *)

open Volterra

type selection = {
  result : Atmor.result;
  chosen : Atmor.orders;  (** orders the growth actually kept *)
}

(** Hankel-SV-suggested linear order, or [None] when [G1] is not
    Hurwitz. *)
val suggest_k1 : ?tol:float -> Qldae.t -> int option

(** Deflation-driven reduction: grow [k1], then [k2], then [k3] up to
    [max_orders] (default [{k1=12; k2=6; k3=3}]), stopping each series
    when a whole moment step adds no direction above [growth_tol]
    (default [1e-7]). Growth is lazy over {!Assoc.series}: a
    step forces the next moment of every series of the order, so no
    moment past the first step that adds nothing is computed.

    Robustness mirrors {!Atmor.reduce}: the expansion point is the one
    {!Robust.Policy.walk_nudges} accepts over one-H1-moment probes of
    the [policy]'s nudge sequence, and a transfer order whose series
    generation fails is dropped to zero moments, its vectors removed
    from the basis (recorded as ["degrade:h1"/"h2"/"h3"] in the
    result's [degradation]). A budget spent by the
    time a step is computed truncates the order to the steps before it
    (["degrade:truncate-series"]). The basis is projected by {!Atmor.finish}. Negative
    [max_orders] entries raise [Invalid_argument]
    ({!Atmor.require_orders}). [fault] arms a {!Robust.Faultify} plan
    on the growth engine's resolvent. *)
val reduce :
  ?policy:Robust.Policy.t ->
  ?fault:Robust.Faultify.plan ->
  ?s0:float ->
  ?growth_tol:float ->
  ?max_orders:Atmor.orders ->
  ?h3_triples:[ `All | `Diagonal ] ->
  Qldae.t ->
  selection
