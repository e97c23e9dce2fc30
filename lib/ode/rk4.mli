(** Classical fixed-step fourth-order Runge–Kutta. *)

open La

(** Integrate from [t0] to [t1] with internal step [h] (shortened to land
    exactly on the [samples] uniform output instants). *)
val integrate :
  Types.system ->
  t0:float ->
  t1:float ->
  x0:Vec.t ->
  h:float ->
  samples:int ->
  Types.solution
