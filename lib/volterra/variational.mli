(** Variational (perturbation-cascade) responses of a QLDAE: the exact
    first-, second- and third-order Volterra responses obtained by
    integrating the linear cascade

    {v x1' = G1 x1 + B u
       x2' = G1 x2 + G2 (x1⊗x1)              + Σ D1_i x1 u_i
       x3' = G1 x3 + 2 G2 (x1⊗x2) + G3 x1^⊗3 + Σ D1_i x2 u_i v}

    The n-th cascade state is the time-domain counterpart of [Hn],
    making this module the oracle for testing the transfer functions and
    the associated-transform realizations. *)

open La

type responses = {
  times : float array;
  x1 : Vec.t array;
  x2 : Vec.t array;
  x3 : Vec.t array;
}

(** Integrate the cascade from rest. *)
val responses :
  ?rtol:float ->
  ?atol:float ->
  Qldae.t ->
  input:(float -> Vec.t) ->
  t0:float ->
  t1:float ->
  samples:int ->
  responses

(** [volterra_sum r ~eps i]: [ε x1 + ε² x2 + ε³ x3] at sample [i] — the
    third-order Volterra approximation of the response to [ε·u]. *)
val volterra_sum : responses -> eps:float -> int -> Vec.t
