(** Implicit trapezoidal rule (A-stable, second order) with modified
    Newton — the stiff-circuit integrator used for the surge-protection
    experiment. Requires the system to provide a Jacobian. *)

open La

(** Integrate with fixed step [h] (shortened to land on sample
    instants). The factored iteration matrix is reused while the step
    stays within 1e-9 relative of the one it was built for, so steps
    shortened by rounding alone do not refactor. Raises
    [Types.Step_failure] if Newton stalls. *)
val integrate :
  Types.system ->
  t0:float ->
  t1:float ->
  x0:Vec.t ->
  h:float ->
  ?newton_tol:float ->
  ?max_newton:int ->
  samples:int ->
  unit ->
  Types.solution
