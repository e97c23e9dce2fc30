(** A-posteriori ROM accuracy diagnostics.

    Compares the associated transfer functions [H1]/[H2]/[H3] of the
    full and reduced QLDAE at the expansion point (and [H1] at a few
    points off the real axis) and reports relative output-space
    residuals — the "did the moment match actually hold" check behind
    the {!Obs.Health.Moment_residual} / {!Obs.Health.Freq_error}
    telemetry.  Residuals aggregate over all inputs and outputs in the
    Frobenius sense.

    Everything here is diagnostic: numerical failures inside an
    evaluator drop the affected entry ([None]) instead of raising. *)

open La
open Volterra

type report = {
  h1 : float option;
  h2 : float option;  (** [None] when not matched, absent, or failed *)
  h3 : float option;
}

type side
(** The full model's side of the check, as the reduction computed it. *)

val side :
  ?triples_mode:[ `All | `Diagonal ] ->
  Assoc.t Lazy.t ->
  Vec.t list * Vec.t list * Vec.t list ->
  side
(** [side eng (h1, h2, h3)]: [eng] is the engine the reduction stepped,
    for [s0] and the Schur factorization of [G1] (forced only here, so
    a reducer that needs no engine builds one only under a sink).
    [h_k] holds [H_k(s0)], the head of every order-[k] series the
    reduction stepped, one per input combination in {!Assoc.series}
    order, with [H3] over the [triples_mode] (default [`All]) triples.
    An empty [h_k] means the reduction did not match order [k], which is
    then not checked. *)

val moment_residuals : side -> full:Qldae.t -> rom:Qldae.t -> report
(** Relative residuals [‖C H_k^full(s0) − C_r H_k^rom(s0)‖/‖C H_k^full(s0)‖]
    for every order whose heads [side] holds; the ROM's heads are its
    own {!Assoc.series} heads about the same [s0]. *)

val freq_sweep : side -> full:Qldae.t -> rom:Qldae.t -> (float * float) list
(** Relative [H1] error at [s0 + iω] for ω in [0.01, 0.1, 1, 10]; failed
    points are dropped. The full model's Schur factorization is the
    engine's, the ROM's that of a ROM engine about [s0]. *)

val emit_health : side -> full:Qldae.t -> rom:Qldae.t -> report
(** Compute {!moment_residuals} and {!freq_sweep} through one ROM
    engine (so the ROM's [G1] is factored once) inside a
    ["romdiag.health"] span and emit the corresponding health records.
    Callers gate this behind {!Obs.Health.active}. *)
