(** Structured solves with shifted Kronecker sums of one matrix:
    [(σ I − ⊕^k G) x = v] with [v] of length [n^k], never materializing
    the [n^k × n^k] operator.

    One real Schur factorization [G = U T Uᵀ] ({!Schur.real_factors})
    turns every such solve into mode-wise orthogonal transforms plus a
    recursive block-triangular tensor back-substitution — cost
    [O(k n^(k+1))], memory [O(n^k)]. This is how the
    associated-transform moments of [H2(s)] and [H3(s)] stay tractable
    (paper §2.3). Every solve runs in real arithmetic on those factors,
    charged at 2 flops per multiply-add on 8-byte words. On a real
    spectrum [T] is triangular; each complex pair leaves a 2x2 block,
    solved in small dense real systems over tuples of diagonal blocks.
    A complex shift [a + ib] solves its real and imaginary parts as one
    two-slot tuple with the shift matrix [[a, −b], [b, a]], charged as
    two real solves (4 flops per multiply-add on two words). *)

type t

(** Raised by an unregularized solve when a shift collides with an
    eigenvalue sum [λ_{i1} + ... + λ_{ik}] to working precision,
    [|σ − Σλ| ≤ n·ε·(|σ| + k·max|λ_i|)] (the operator is singular
    there; a rounding-sized computed eigenvalue of a singular [G] counts
    as the pole it is). Carries the distance [|σ − Σλ|]. *)
exception Near_singular of float

(** Factor once; reuse for any [k] and any shift. *)
val prepare : Mat.t -> t

(** The Schur factorization [G = U T Uᵀ] itself. *)
val schur : t -> Schur.t

(** The solver of [Gᵀ] on the same factorization ({!Schur.transpose}):
    no second Schur factorization. *)
val transpose : t -> t

(** Diagnostic distance from [σ] to the nearest pole
    [λ_{i1} + ... + λ_{ik}]: exact for k = 1, for k = 2 at n ≤ 400 and
    for k = 3 while the n(n+1)(n+2)/6 sorted triples number ≤ 2·10⁶;
    beyond that only the sums [k λ_i] are sampled. *)
val min_pole_distance : t -> k:int -> sigma:Complex.t -> float

(** Cheap conditioning estimate of [(σ I − ⊕^k T)]: ratio of the
    farthest to the nearest pole distance over the sampled eigenvalue
    sums of {!min_pole_distance} ([infinity] on a pole).  A health
    diagnostic, not a bound. *)
val cond_estimate : t -> k:int -> sigma:Complex.t -> float

(** [solve_shifted t ~k ~sigma v] solves [(σ I − ⊕^k G) x = v], on the
    real factors with [v]'s real and imaginary parts as a two-slot
    tuple. [mu > 0] makes it Tikhonov-regularized: each tuple's system
    [M y = r] is solved as [(MᵀM + μ²I) y = Mᵀ r], which on a 1x1 block
    of [T] is the scalar inverse [conj(d) / (|d|² + μ²)], finite even
    when [σ] sits exactly on a pole (minimum-norm there) — the one
    retry of a near-singular shifted solve, at every [k]. *)
val solve_shifted :
  ?mu:float -> t -> k:int -> sigma:Complex.t -> Cvec.t -> Cvec.t

(** Real shift, real data: the scalar back-substitution on a triangular
    [T], with the Tikhonov inverse [d / (d² + μ²)] at [mu > 0]; a tuple
    with a 2x2 block solves its Tikhonov normal equations
    [(MᵀM + μ²I) y = Mᵀ r]. *)
val solve_shifted_real :
  ?mu:float -> t -> k:int -> sigma:float -> Vec.t -> Vec.t

(** [apply_shifted ~g ~k ~sigma x] applies [(σ I − ⊕^k G)] to a flat
    real vector — the residual-check companion of the solver. *)
val apply_shifted : g:Mat.t -> k:int -> sigma:float -> Vec.t -> Vec.t

(** {2 Schur-coordinate interface}

    Series recursions (repeated solves at one shift) keep their iterates
    in the Schur basis; each step is then one triangular tensor
    back-substitution, entered through {!adjoint_vec_real} on rank-1
    factors and read out by the caller's own contraction with [U]. *)

(** The real orthogonal [U] of the real Schur factors, the basis of
    the kernels below. *)
val real_unitary : t -> Mat.t

(** [Uᵀ b] — the Schur image of a rank-1 factor. *)
val adjoint_vec_real : t -> Vec.t -> Vec.t

(** The middle solve only: [(σI − ⊕^k T) y = w] on Schur-basis data.
    On a triangular [T] a scalar back-substitution with Par tiles, a
    fixed per-entry sum order, budget polls, the relative pole rule of
    {!Near_singular} and the Tikhonov inverse [d / (d² + μ²)]. A tuple
    of unknowns that holds a 2x2 block of [T] is solved together
    (Tikhonov: its normal equations); a poll is one per node of the
    recursion over diagonal blocks, [1 + nb] for [k = 2] over [nb]
    blocks. *)
val tri_solve_shifted_real :
  ?mu:float -> t -> k:int -> sigma:float -> Vec.t -> Vec.t

(** [tri_solve_tuple t ~sm ~eig w] solves [(S ⊗ I − I_m ⊗ T) y = w] on
    Schur-basis data of [m] slots: slot [u] of [w] (length [m·n]) at
    [u·n], [S = sm] real [m × m] with eigenvalues [eig] (which the pole
    rule reads). Every diagonal block of [T] starts a tuple of the [m]
    slots, through the sums of {!tri_solve_shifted_real} at [k = 1];
    charged as [m] real solves. The eq.-18 Sylvester solve's column
    tuples run here. *)
val tri_solve_tuple : t -> sm:Mat.t -> eig:Complex.t array -> Vec.t -> Vec.t

(** {!tri_solve_shifted_real} at [k = 3] for permutation-symmetric
    data: [w] (hence [y]) unchanged by any permutation of its three
    indices, such as the [sym³] series of the third-order associated
    transform. Solves only the [n(n+1)(n+2)/6] entries with
    [i ≤ j ≤ l] and writes each to its six permutations, so the result
    is the full [n³] layout; entries of [w] off [i ≤ j ≤ l] are never
    read. Same [Near_singular] check and Tikhonov [mu]; its levels are
    the diagonal blocks of [T], one budget poll each; one nominal
    [Flops_trisolve] charge of [(n−1)n(n+1)(n+2)/2 + 5·n(n+1)(n+2)/6]
    (about a sixth of the full solve's [3n³(n−1) + 5n³]).
    Bit-identical at any domain count. Runs in a [ksolve.tri_sym3]
    span. *)
val tri_solve_sym3_real : ?mu:float -> t -> sigma:float -> Vec.t -> Vec.t

(** Multiply an order-[k] tensor (flat, dims all [n], mode 0 slowest)
    along mode [m] by [mat], or by [matᵀ] with [transpose]. *)
val mode_mul_real :
  n:int -> k:int -> m:int -> ?transpose:bool -> Mat.t -> Vec.t -> Vec.t
