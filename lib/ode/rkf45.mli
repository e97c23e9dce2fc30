(** Runge–Kutta–Fehlberg 4(5) with adaptive step-size control — the
    default transient engine for the (mildly stiff) quadratized circuit
    models. *)

open La

(** Integrate from [t0] to [t1], sampling the solution on a uniform grid
    of [samples] points. [h0] is the initial step, [hmax] the cap
    (default: a tenth of the span).

    Non-finite step results (NaN/Inf from the rhs or an overflowing
    state) are treated as rejected attempts and halve the step until
    [hmin]; only then is [Types.Step_failure] raised. [max_steps]
    bounds the total attempted steps (accepted + rejected) so stiff
    systems fail fast instead of grinding — exceeding it raises
    [Types.Step_failure]. Recoveries and final failures are recorded
    against [recorder]. *)
val integrate :
  Types.system ->
  t0:float ->
  t1:float ->
  x0:Vec.t ->
  ?rtol:float ->
  ?atol:float ->
  ?h0:float ->
  ?hmax:float ->
  ?max_steps:int ->
  ?recorder:Robust.Report.recorder ->
  samples:int ->
  unit ->
  Types.solution
