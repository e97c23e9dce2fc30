(** A-posteriori ROM accuracy diagnostics.

    Compares the associated transfer functions [H1]/[H2]/[H3] of the
    full and reduced QLDAE at the expansion point (and [H1] at a few
    points off the real axis) and reports relative output-space
    residuals — the "did the moment match actually hold" check behind
    the {!Obs.Health.Moment_residual} / {!Obs.Health.Freq_error}
    telemetry.  Residuals aggregate over all inputs and outputs in the
    Frobenius sense; [H3] uses diagonal input triples [(a,a,a)].

    Everything here is diagnostic: numerical failures inside an
    evaluator drop the affected entry ([None]) instead of raising. *)

open Volterra

type report = {
  h1 : float option;
  h2 : float option;  (** [None] when not matched, absent, or failed *)
  h3 : float option;
}

val moment_residuals :
  orders:int * int * int ->
  s0:float ->
  full:Qldae.t ->
  rom:Qldae.t ->
  unit ->
  report
(** Relative residuals [‖C H_k^full(s0) − C_r H_k^rom(s0)‖/‖C H_k^full(s0)‖],
    each [H_k(s0)] taken as the head of the model's own
    {!Assoc.series} about [s0].  [orders = (k1, k2, k3)] are the moment
    counts the reduction matched: [H_k] is checked only when its count
    is positive (and the model has the coupling), so the check steps
    each series once where the reduction stepped it [k] times. *)

val freq_sweep :
  ?omegas:float list ->
  s0:float ->
  full:Qldae.t ->
  rom:Qldae.t ->
  unit ->
  (float * float) list
(** Relative [H1] error at [s0 + iω] for each sample [ω]
    (default [0.01, 0.1, 1, 10]); failed points are dropped. *)

val emit_health :
  orders:int * int * int ->
  s0:float ->
  full:Qldae.t ->
  rom:Qldae.t ->
  unit ->
  report
(** Compute {!moment_residuals} and {!freq_sweep} inside a
    ["romdiag.health"] span and emit the corresponding health records.
    Callers gate this behind {!Obs.Health.active}. *)
