(** Implicit trapezoidal rule (A-stable, second order) with modified
    Newton — the stiff-circuit integrator used for the surge-protection
    experiment. Requires the system to provide a Jacobian. *)

open La

(** Integrate with fixed step [h] (shortened to land on sample
    instants). Raises [Types.Step_failure] if Newton stalls. *)
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
