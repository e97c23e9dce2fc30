(** Associated transforms of the high-order Volterra transfer functions —
    the paper's core contribution (§2.2–2.3).

    Theorems 1 and 2 collapse the multivariate [H2(s1,s2)],
    [H3(s1,s2,s3)] into single-[s] functions built from Kronecker sums
    of [G1]:

    {v H2(s) = (sI−G1)⁻¹ ( G2 (sI−⊕²G1)⁻¹ w + d )          (eq. 17)
       H3(s) = (sI−G1)⁻¹ ( (2/3)Σ G2 W(s) + (1/3)Σ D1 H2(s)
                           + G3 (sI−⊕³G1)⁻¹ q ) v}

    summed over the three pairings [(i,(j,k))] of an input triple. Their
    [⊕³] right-hand sides sum to [Σ b_i ⊗ sym(b_j⊗b_k) = 3·sym³ = 3q],
    so [(2/3)Σ W(s) = 2 (sI−⊕²G1)⁻¹ (p + (I⊗G2)(sI−⊕³G1)⁻¹ q)] with
    [p = (1/3)Σ b_i ⊗ d_jk]: the moments run one [⊕³] series (shared
    with the [G3] term) and one [⊕²] series per triple.

    The [n²]/[n³] series states stay in the Schur basis of [G1]: they
    start from the [Uᵀ] images of input columns, step by triangular
    solves, and are read back only through the couplings ({!g2_read}
    for [G2]), never by full mode transforms.

    Every order is a function of the one variable [s], so a
    Krylov/moment subspace about a {e single} [s] serves every order —
    the paper's escape from the exponential subspace growth of
    multivariate moment matching. Its moments come from one resolvent
    chain [m_j = (s0 I − G1)⁻¹ (m_{j−1} + inner_j)]; the orders differ
    only in the inner term ([b] for [H1], [G2 r_j + d] for [H2], the
    [⊕²]/[⊕³]/[D1] terms for [H3]). Every [n²]/[n³]-sized solve goes
    through the structured Kronecker-sum solver {!La.Ksolve}; nothing of
    size [n²×n²] is ever materialized.

    Moment vectors are Taylor coefficients about a real expansion point
    [s0], reported as coefficients of [(−δ)^m] (i.e. [(−1)^m] times the
    Taylor coefficient — the sign is irrelevant for subspace spanning). *)

open La

type t

(** The default expansion point for a model: [0] when [G1] is
    invertible, [1.0] for quadratized diode circuits whose augmented
    [G1] is structurally singular (see DESIGN.md; the paper's §4 non-DC
    expansion). Exposed so retry policies can nudge from the same
    baseline the engine would pick. *)
val default_s0 : Qldae.t -> float

(** Build the engine. [s0] defaults to {!default_s0}. Every solve, the
    resolvent [(s0 I − G1)⁻¹] included, is a {!La.Ksolve} solve on one
    Schur factorization of [G1], computed on first use; a near-singular
    shift retries once with Tikhonov-regularized scalar inverses
    ([policy.tikhonov_mu], disabled when [0]), recorded against
    [recorder] as ["fallback:tikhonov"], the same way at every order.
    [fault] arms a deterministic fault-injection plan on the resolvent
    outputs (each [create] gets a fresh call counter, so schedules are
    reproducible per engine). *)
val create :
  ?recorder:Robust.Report.recorder ->
  ?policy:Robust.Policy.t ->
  ?fault:Robust.Faultify.plan ->
  ?s0:float ->
  Qldae.t ->
  t

(** [rearm t ~recorder ~fault]: the same engine (model, [s0], policy
    and every factorization already computed, shared) recording into
    [recorder] with a fresh fault plan and an empty [H2] memo, so no
    series computed under the old plan is served under the new one.
    Lets a probe's engine serve the run it selects without factoring
    [G1] again. *)
val rearm :
  t -> recorder:Robust.Report.recorder -> fault:Robust.Faultify.plan option -> t

(** The expansion point in use. *)
val s0 : t -> float

(** The Schur factorization of [G1] behind every solve of the engine,
    computed on first use and shared with its series. *)
val ksolve : t -> Ksolve.t

(** [g2_read t w] is [G2 (U ⊗ U) w] for an [n²] tensor [w] in the
    Schur basis [U] of {!ksolve}, symmetric or not: with [G2]
    symmetrized, one [n × n(n+1)/2] matvec against the engine's packed
    [G2 (U ⊗ U)] columns, built on first use. How the H2 series and
    H3's [⊕²] state leave the Schur basis. *)
val g2_read : t -> Vec.t -> Vec.t

(** [series t ~order] for [order] 1, 2 or 3: one lazy moment series of
    [H_order] about [s0] per input combination — every input for [H1],
    every unordered pair [(a, b)], [a ≤ b], for [H2], every unordered
    triple [(a, b, c)], [a ≤ b ≤ c], for [H3] ([`Diagonal] keeps only
    [(a, a, a)], cheaper for many-input systems; [`All], the default, is
    exact) — in that lexicographic order. [[]] when the order has no
    coupling ([H2] without [G2]/[D1], [H3] without [G2]/[G3]/[D1]).

    Each series computes its next moment (one resolvent step plus the
    order's inner-term step) only when that element is forced, so
    [Seq.take k] costs exactly [k] steps, and memoizes what it computed.
    The engine keeps the [H2] series of every input pair it has
    forced: [series ~order:2] and the [D1] terms of [series ~order:3]
    read the same one, so an [H2] step runs once per engine, and a
    second call steps nothing already taken. Calling [series] computes
    nothing and is domain-safe (the domain-safety inventory lists it
    so), but forcing a returned series is not: its memo cells are
    [Lazy] values and the engine's [H2] memo a table, so force an
    engine's series on one domain. Raises [Invalid_argument] for any
    other [order]. *)
val series :
  ?triples_mode:[ `All | `Diagonal ] -> t -> order:int -> Vec.t Seq.t list

(** [h1_moments t ~k]: [k] moment vectors of [H1] about [s0] per input
    column — the classical Krylov chain [(s0I−G1)^{-(j+1)} b]; the first
    [k] elements of each {!series} [~order:1], input after input. *)
val h1_moments : t -> k:int -> Vec.t list

(** [h2_moments t ~k]: [k] moments for every unordered input pair, as
    {!h1_moments} over {!series} [~order:2]. *)
val h2_moments : t -> k:int -> Vec.t list

(** [h3_moments t ~k]: [k] moments for every input triple of
    [triples_mode], as {!h1_moments} over {!series} [~order:3]. *)
val h3_moments : ?triples_mode:[ `All | `Diagonal ] -> t -> k:int -> Vec.t list

(** Evaluate the associated [H2^{ab}(s)] at a complex frequency. Every
    solve, the resolvent [(sI − G1)^-1] included, runs on the engine's
    one Schur factorization ({!La.Ksolve.solve_shifted}). *)
val h2_eval : t -> inputs:int * int -> Complex.t -> Cvec.t

(** Evaluate the associated [H3^{abc}(s)] at a complex frequency, on the
    same Schur factorization as {!h2_eval}. *)
val h3_eval : t -> inputs:int * int * int -> Complex.t -> Cvec.t
