(** Trajectory piecewise-linear (TPWL) reduction — Rewienski & White,
    the paper's ref [14]. Provided as the strongly-nonlinear baseline
    the paper's introduction contrasts against; the ablation benches
    demonstrate its training-input dependence (accurate near the
    training trajectory, degrading on unfamiliar excitations, where the
    associated-transform ROM is input-independent by construction). *)

open La
open Volterra

type t

(** Reduced dimension. *)
val order : t -> int

(** Number of linearization points kept. *)
val n_pieces : t -> int

(** Train on a full-model trajectory: greedy linearization-point
    selection at relative distance [delta] (default 0.1), POD-style
    snapshot basis truncated at [basis_tol] / [max_basis], blending
    sharpness [beta]. *)
val train :
  ?delta:float ->
  ?basis_tol:float ->
  ?max_basis:int ->
  ?beta:float ->
  Qldae.t ->
  input:(float -> Vec.t) ->
  t0:float ->
  t1:float ->
  samples:int ->
  t

(** Simulate the TPWL ROM from rest. *)
val simulate :
  ?solver:Qldae.solver ->
  t ->
  input:(float -> Vec.t) ->
  t0:float ->
  t1:float ->
  samples:int ->
  Ode.Types.solution

(** First output row series. *)
val output : t -> Ode.Types.solution -> float array
