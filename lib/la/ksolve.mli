(** Structured solves with shifted Kronecker sums of one matrix:
    [(σ I − ⊕^k G) x = v] with [v] of length [n^k], never materializing
    the [n^k × n^k] operator.

    One complex Schur factorization [G = U T U^H] turns every such solve
    into mode-wise unitary transforms plus a recursive triangular tensor
    back-substitution — cost [O(k n^(k+1))], memory [O(n^k)]. This is
    how the associated-transform moments of [H2(s)] and [H3(s)] stay
    tractable (paper §2.3). *)

type t

(** Raised by an unregularized solve when a shift collides with an
    eigenvalue sum [λ_{i1} + ... + λ_{ik}] to working precision,
    [|σ − Σλ| ≤ n·ε·(|σ| + k·max|λ_i|)] (the operator is singular
    there; a rounding-sized computed eigenvalue of a singular [G] counts
    as the pole it is). Carries the distance [|σ − Σλ|]. *)
exception Near_singular of float

(** Factor once; reuse for any [k] and any shift. *)
val prepare : Mat.t -> t

(** The Schur factorization [G = U T U^H] itself. *)
val schur : t -> Schur.t

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

(** [solve_shifted t ~k ~sigma v] solves [(σ I − ⊕^k G) x = v].
    [mu > 0] makes it Tikhonov-regularized: every scalar division in the
    triangular back-substitution uses [conj(d) / (|d|² + μ²)], finite
    even when [σ] sits exactly on a pole (minimum-norm there) — the
    one retry of a near-singular shifted solve, at every [k]. *)
val solve_shifted :
  ?mu:float -> t -> k:int -> sigma:Complex.t -> Cvec.t -> Cvec.t

(** Real shift / real data convenience. Without [mu] (or at [mu = 0])
    it fails if the result has a non-negligible imaginary residue; a
    regularized solve returns the real part unguarded. *)
val solve_shifted_real :
  ?mu:float -> t -> k:int -> sigma:float -> Vec.t -> Vec.t

(** [apply_shifted ~g ~k ~sigma x] applies [(σ I − ⊕^k G)] to a flat
    real vector — the residual-check companion of the solver. *)
val apply_shifted : g:Mat.t -> k:int -> sigma:float -> Vec.t -> Vec.t

(** {2 Schur-coordinate interface}

    Series recursions (repeated solves at one shift) pay the unitary
    mode transforms only at entry and exit when the iterates are kept in
    the Schur basis; each step is then one triangular tensor
    back-substitution. *)

(** [U^⊗k x]. *)
val from_schur : t -> k:int -> Cvec.t -> Cvec.t

(** [U^H b] for real [b] — the Schur image of a rank-1 factor. *)
val adjoint_vec : t -> Vec.t -> Cvec.t

(** The triangular middle solve only: [(σI − ⊕^k T) y = w] on
    Schur-basis data. [mu] applies the Tikhonov-regularized scalar
    inverse of {!solve_shifted}. *)
val tri_solve_shifted :
  ?mu:float -> t -> k:int -> sigma:Complex.t -> Cvec.t -> Cvec.t

(** {!tri_solve_shifted} at [k = 3] for permutation-symmetric data:
    [w] (hence [y]) unchanged by any permutation of its three indices,
    such as the [sym³] series of the third-order associated transform.
    Solves only the [n(n+1)(n+2)/6] entries with [i ≤ j ≤ l] and writes
    each to its six permutations, so the result is the full [n³]
    layout; entries of [w] off [i ≤ j ≤ l] are never read. Same
    [Near_singular] check, Tikhonov [mu], one budget poll per level
    [i]; one nominal [Flops_trisolve] charge of
    [2(n−1)n(n+1)(n+2) + 11·n(n+1)(n+2)/6] (about a sixth of the full
    solve's [12n³(n−1) + 11n³]). Bit-identical at any domain count. *)
val tri_solve_sym3 : ?mu:float -> t -> sigma:Complex.t -> Cvec.t -> Cvec.t

(** The unitary Schur factor, for assembling custom Schur-basis
    operators such as [U^H G2 (U ⊗ U)]. *)
val unitary : t -> Cmat.t

(** Multiply an order-[k] tensor (flat, dims all [n], mode 0 slowest)
    along mode [m] by a complex matrix or its adjoint. Exposed for the
    block solves of the third-order associated realization. *)
val mode_mul :
  n:int -> k:int -> m:int -> ?adjoint:bool -> Cmat.t -> Cvec.t -> Cvec.t

(** Real variant of {!mode_mul}. *)
val mode_mul_real : n:int -> k:int -> m:int -> Mat.t -> Vec.t -> Vec.t
