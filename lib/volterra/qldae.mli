(** Quadratic-linear (plus optional cubic) differential state equations —
    the paper's eq. (2) extended with the cubic coupling of §3.4 and
    multiple inputs (§3.3):

    {v x' = G1 x + G2 (x⊗x) + G3 (x⊗x⊗x) + Σ_i (D1_i x) u_i + b_i u_i v}

    [G2] and [G3] are stored symmetrized so that contractions against
    distinct arguments match the symmetrized Volterra transfer-function
    formulas (paper eqs. 14b/14c). Simulation evaluates [field], their
    sum compiled once onto distinct monomials ({!La.Polymap}) by every
    constructor; the record is private so no system skips that step. *)

open La

type t = private {
  n : int;
  m : int;
  g1 : Mat.t;
  g2 : Sptensor.t;
  g3 : Sptensor.t;
  d1 : Mat.t array;
  b : Mat.t;
  c : Mat.t;
  field : Polymap.t;  (** [G2 x⊗x + G3 x⊗x⊗x], compiled *)
  d1_live : bool array;  (** [D1_i ≠ 0], per input *)
}

(** Build a system; omitted couplings default to zero. [g2]/[g3] are
    symmetrized on entry. Raises [Invalid_argument] on any shape
    mismatch. *)
val make :
  ?g2:Sptensor.t ->
  ?g3:Sptensor.t ->
  ?d1:Mat.t array ->
  g1:Mat.t ->
  b:Mat.t ->
  c:Mat.t ->
  unit ->
  t

(** State dimension [n]. *)
val dim : t -> int

val n_inputs : t -> int
val n_outputs : t -> int
val has_d1 : t -> bool
val has_g2 : t -> bool
val has_g3 : t -> bool

(** Column [i] of the input map. *)
val b_col : t -> int -> Vec.t

(** [rhs t x u] is [x'] at state [x], input value [u] (allocates its
    own monomial scratch). *)
val rhs : t -> Vec.t -> Vec.t -> Vec.t

(** State Jacobian [∂x'/∂x] at [(x, u)]. *)
val jacobian : t -> Vec.t -> Vec.t -> Mat.t

(** Wrap as an ODE system for a given input waveform. Its [rhs] equals
    {!rhs} bit for bit but reuses one scratch owned by the closure:
    step one system value from one domain at a time. *)
val ode_system : t -> input:(float -> Vec.t) -> Ode.Types.system

type solver =
  | Rk4 of float  (** fixed step *)
  | Rkf45 of { rtol : float; atol : float }  (** adaptive *)
  | Imtrap of float  (** implicit trapezoid, fixed step *)

val default_solver : solver

(** Transient simulation from [x0] (default: the origin — circuits are
    built around their zero equilibrium), sampled on a uniform grid. *)
val simulate :
  ?solver:solver ->
  ?x0:Vec.t ->
  t ->
  input:(float -> Vec.t) ->
  t0:float ->
  t1:float ->
  samples:int ->
  Ode.Types.solution

(** First output row [c₀ᵀ x(t)] as a series. *)
val output : t -> Ode.Types.solution -> float array

(** All output rows. *)
val outputs : t -> Ode.Types.solution -> float array array

(** Newton solve of [f(x, u0) = 0] from the origin (or [x_init]), with
    step damping. Raises [Failure] if Newton stalls. *)
val dc_operating_point :
  ?tol:float -> ?max_iter:int -> ?x_init:Vec.t -> t -> u0:Vec.t -> Vec.t

(** Exact polynomial recentring around an equilibrium [(x0, u0)]: the
    returned system's state is the deviation [d = x − x0] and its input
    is [ũ = u − u0], with equilibrium at the origin — the form the
    reduction machinery expects for biased circuits (e.g. the standing
    200 V supply of the paper's Fig. 5). Raises [Invalid_argument] if
    [(x0, u0)] is not an equilibrium. *)
val shift_equilibrium : t -> x0:Vec.t -> u0:Vec.t -> t

(** Petrov–Galerkin (oblique) projection with test basis [W] and trial
    basis [V], assumed bi-orthogonal ([Wᵀ V = I]): reduced dynamics
    [xr' = Wᵀ f(V xr, u)]. Used by balanced-truncation-style
    reductions. *)
val project_petrov : t -> w:Mat.t -> v:Mat.t -> t

(** Galerkin projection onto an orthonormal basis [V] ([n × q]):
    the reduced-order model with [G1r = VᵀG1V], [G2r = VᵀG2(V⊗V)],
    [G3r = VᵀG3(V⊗V⊗V)], [D1r = VᵀD1V], [br = Vᵀb], [cr = CV]. *)
val project : t -> Mat.t -> t
