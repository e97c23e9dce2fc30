(* Quadratic-linear (plus optional cubic) differential state equations —
   the paper's eq. (2) extended with the cubic coupling of §3.4 and
   multiple inputs (§3.3):

     x' = G1 x + G2 (x ⊗ x) + G3 (x ⊗ x ⊗ x)
          + sum_i (D1_i x) u_i + b_i u_i

   G2 and G3 are kept symmetrized so that contraction against distinct
   arguments matches the symmetrized Volterra formulas (14b)/(14c).
   Simulation never contracts them: every system also carries their
   sum as a Polymap, which rhs, jacobian and ode_system evaluate —
   compiled onto distinct monomials, or, for a projection where that is
   cheaper, lifted around the full model's own field. *)

open La

type t = {
  n : int;  (* state dimension *)
  m : int;  (* number of inputs *)
  g1 : Mat.t;  (* n x n *)
  g2 : Sptensor.t;  (* arity 2, n x n^2, symmetrized *)
  g3 : Sptensor.t;  (* arity 3, n x n^3, symmetrized *)
  d1 : Mat.t array;  (* one n x n matrix per input (all zero allowed) *)
  b : Mat.t;  (* n x m input map *)
  c : Mat.t;  (* p x n output map *)
  field : Polymap.t;  (* G2 + G3, compiled or lifted *)
  d1_live : bool array;  (* D1_i <> 0, per input *)
}

let validate ~g1 ~g2 ~g3 ~d1 ~b ~c =
  let n = Mat.rows g1 and m = Mat.cols b in
  Contract.require_dims "Qldae.validate: G1" ~expected:(n, n) ~actual:(Mat.dims g1);
  Contract.require "Qldae.validate: G2"
    (Sptensor.arity g2 = 2 && Sptensor.n_in g2 = n && Sptensor.n_out g2 = n)
    "kron incompatibility"
    (Printf.sprintf "arity %d, %d -> %d against state dim %d" (Sptensor.arity g2)
       (Sptensor.n_in g2) (Sptensor.n_out g2) n);
  Contract.require "Qldae.validate: G3"
    (Sptensor.arity g3 = 3 && Sptensor.n_in g3 = n && Sptensor.n_out g3 = n)
    "kron incompatibility"
    (Printf.sprintf "arity %d, %d -> %d against state dim %d" (Sptensor.arity g3)
       (Sptensor.n_in g3) (Sptensor.n_out g3) n);
  Contract.require_len "Qldae.validate: D1 count" ~expected:m ~actual:(Array.length d1);
  Array.iter
    (fun d ->
      Contract.require_dims "Qldae.validate: D1" ~expected:(n, n) ~actual:(Mat.dims d))
    d1;
  Contract.require_dims "Qldae.validate: b" ~expected:(n, m) ~actual:(Mat.dims b);
  Contract.require_len "Qldae.validate: c cols" ~expected:n ~actual:(Mat.cols c);
  Contract.require_finite "Qldae.validate: G1" (Mat.data g1);
  Contract.require_finite "Qldae.validate: b" (Mat.data b)

(* The one constructor: every system, given or derived, gets its
   polynomial vector field and D1 mask here, once; compiled from G2 and
   G3 unless a projection supplies its own layout. *)
let build ?field ~g1 ~g2 ~g3 ~d1 ~b ~c () =
  let field = match field with Some f -> f | None -> Polymap.compile [ g2; g3 ] in
  let d1_live = Array.map (fun d -> Mat.norm_fro d > 0.0) d1 in
  { n = Mat.rows g1; m = Mat.cols b; g1; g2; g3; d1; b; c; field; d1_live }

let make ?g2 ?g3 ?d1 ~g1 ~b ~c () =
  let n = Mat.rows g1 in
  let m = Mat.cols b in
  let g2 =
    match g2 with
    | Some g -> Sptensor.symmetrize g
    | None -> Sptensor.zero ~n_out:n ~n_in:n ~arity:2
  in
  let g3 =
    match g3 with
    | Some g -> Sptensor.symmetrize g
    | None -> Sptensor.zero ~n_out:n ~n_in:n ~arity:3
  in
  let d1 =
    match d1 with Some d -> d | None -> Array.init m (fun _ -> Mat.create n n)
  in
  validate ~g1 ~g2 ~g3 ~d1 ~b ~c;
  build ~g1 ~g2 ~g3 ~d1 ~b ~c ()

let dim t = t.n

let n_inputs t = t.m

let n_outputs t = Mat.rows t.c

let has_d1 t = Array.exists Fun.id t.d1_live

let has_g2 t = not (Sptensor.is_zero t.g2)

let has_g3 t = not (Sptensor.is_zero t.g3)

(* Input column i of b. *)
let b_col t i = Mat.col t.b i

(* Right-hand side x' = f(x, u), the monomials formed in [scratch]. *)
let rhs_with scratch t (x : Vec.t) (u : Vec.t) : Vec.t =
  Contract.require_len "Qldae.rhs: x" ~expected:t.n ~actual:(Array.length x);
  Contract.require_len "Qldae.rhs: u" ~expected:t.m ~actual:(Array.length u);
  (* Nominal un-leafed charge for the accumulation glue (input columns
     and their axpys), unconditional so the count is a constant of the
     system shape, not of the input waveform; the matvecs and the
     polynomial apply charge themselves. *)
  Obs.Cost.charge Obs.Cost.Flops_ode_rhs (5 * t.n * t.m) ~read:(5 * t.n * t.m)
    ~written:(2 * t.m * t.n);
  let out = Mat.mul_vec t.g1 x in
  if Polymap.nnz t.field > 0 then Polymap.apply_add t.field ~scratch x out;
  let bd = Mat.data t.b in
  for i = 0 to t.m - 1 do
    let ui = u.(i) in
    if Contract.nonzero ui then begin
      for r = 0 to t.n - 1 do
        out.(r) <- out.(r) +. (ui *. bd.((r * t.m) + i))
      done;
      if t.d1_live.(i) then Vec.axpy ~alpha:ui (Mat.mul_vec t.d1.(i) x) out
    end
  done;
  out

let rhs t x u = rhs_with (Polymap.scratch t.field) t x u

(* State Jacobian df/dx at (x, u). *)
let jacobian t (x : Vec.t) (u : Vec.t) : Mat.t =
  let j = Mat.copy t.g1 in
  Polymap.jacobian_add t.field x j;
  for i = 0 to t.m - 1 do
    if Contract.nonzero u.(i) && t.d1_live.(i) then
      Vec.axpy ~alpha:u.(i) (Mat.data t.d1.(i)) (Mat.data j)
  done;
  j

(* Wrap as an ODE system for a given input waveform u : t -> R^m. The
   closure owns its monomial scratch: one buffer per integration. *)
let ode_system t ~(input : float -> Vec.t) : Ode.Types.system =
  let scratch = Polymap.scratch t.field in
  {
    Ode.Types.dim = t.n;
    rhs = (fun time x -> rhs_with scratch t x (input time));
    jac = Some (fun time x -> jacobian t x (input time));
  }

type solver = Rk4 of float | Rkf45 of { rtol : float; atol : float } | Imtrap of float

let default_solver = Rkf45 { rtol = 1e-7; atol = 1e-10 }

let simulate ?(solver = default_solver) ?(x0 : Vec.t option) t
    ~(input : float -> Vec.t) ~t0 ~t1 ~samples : Ode.Types.solution =
  Obs.Span.with_ ~name:"qldae.simulate" @@ fun () ->
  let x0 = match x0 with Some v -> v | None -> Vec.create t.n in
  let sys = ode_system t ~input in
  match solver with
  | Rk4 h -> Ode.Rk4.integrate sys ~t0 ~t1 ~x0 ~h ~samples
  | Rkf45 { rtol; atol } ->
    Ode.Rkf45.integrate sys ~t0 ~t1 ~x0 ~rtol ~atol ~samples ()
  | Imtrap h -> Ode.Imtrap.integrate sys ~t0 ~t1 ~x0 ~h ~samples ()

(* Output series y(t) = C x(t) (first output row). *)
let output t (sol : Ode.Types.solution) : float array =
  Ode.Types.output_dot sol ~c:(Mat.row t.c 0)

let outputs t (sol : Ode.Types.solution) : float array array =
  Array.init (n_outputs t) (fun p -> Ode.Types.output_dot sol ~c:(Mat.row t.c p))

(* ---- DC operating point and equilibrium shift ----

   Circuits with standing bias (e.g. the paper's Fig. 5 varistor rides a
   200 V supply) have their equilibrium away from the origin. Reduction
   machinery expands around the origin, so the model is *recentred*:
   with x = x0 + d and f(x0, u0) = 0,

     d' = J d + G2' (d⊗d) + G3 (d⊗d⊗d) + Σ (D1_i d)(u_i - u0_i) + b' u~

   where J is the Jacobian at (x0, u0) and the shifted couplings absorb
   the x0 cross terms. The shift is exact (polynomial recentring). *)

(* Newton solve for f(x, u0) = 0 starting from the origin (or x_init). *)
let dc_operating_point ?(tol = 1e-12) ?(max_iter = 50) ?x_init t
    ~(u0 : Vec.t) : Vec.t =
  let x = ref (match x_init with Some v -> Vec.copy v | None -> Vec.create t.n) in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let f = rhs t !x u0 in
    if Vec.norm2 f <= tol *. (1.0 +. Vec.norm2 !x) then converged := true
    else begin
      let j = jacobian t !x u0 in
      let dx = Lu.solve_system j f in
      (* damped update for robustness on strongly nonlinear devices *)
      let step = ref 1.0 in
      let norm0 = Vec.norm2 f in
      let accepted = ref false in
      while not !accepted do
        let cand = Vec.copy !x in
        Vec.axpy ~alpha:(-. !step) dx cand;
        if Vec.norm2 (rhs t cand u0) < norm0 || !step < 1e-6 then begin
          x := cand;
          accepted := true
        end
        else step := !step /. 2.0
      done
    end
  done;
  if not !converged then
    Robust.Error.raise_error
      (Robust.Error.Convergence_failure
         {
           loc =
             Robust.Error.loc ~subsystem:"volterra"
               ~operation:"Qldae.dc_operating_point";
           detail = Printf.sprintf "Newton stalled after %d iterations" max_iter;
         });
  !x

(* Exact recentring of the system around an equilibrium (x0, u0):
   returns the deviation-variable QLDAE (whose state is d = x - x0 and
   input is u~ = u - u0, with equilibrium at the origin). *)
let shift_equilibrium t ~(x0 : Vec.t) ~(u0 : Vec.t) : t =
  Contract.require_len "Qldae.shift_equilibrium: x0" ~expected:t.n
    ~actual:(Array.length x0);
  Contract.require_len "Qldae.shift_equilibrium: u0" ~expected:t.m
    ~actual:(Array.length u0);
  let residual = rhs t x0 u0 in
  if Vec.norm2 residual > 1e-6 *. (1.0 +. Vec.norm2 x0) then
    invalid_arg "Qldae.shift_equilibrium: (x0, u0) is not an equilibrium";
  (* linear part: full Jacobian at the operating point *)
  let g1 = jacobian t x0 u0 in
  (* quadratic part: G2 plus the cubic cross terms 3 G3 (x0 ⊗ d ⊗ d)
     (G3 symmetric) *)
  let g2 =
    if has_g3 t then begin
      let extra =
        List.filter_map
          (fun (row, idx, coeff) ->
            (* sum over which slot takes x0 — symmetrized G3 makes all
               three equivalent: 3 * coeff * x0.(i1) at (i2, i3) *)
            let i1 = idx.(0) and i2 = idx.(1) and i3 = idx.(2) in
            if Contract.nonzero x0.(i1) then
              Some (row, [| i2; i3 |], 3.0 *. coeff *. x0.(i1))
            else None)
          (Sptensor.entries t.g3)
      in
      Sptensor.add t.g2 (Sptensor.create ~n_out:t.n ~n_in:t.n ~arity:2 extra)
    end
    else t.g2
  in
  (* input map: b_i + D1_i x0 *)
  let b =
    Mat.init t.n t.m (fun r i ->
        Mat.get t.b r i +. Vec.dot (Mat.row t.d1.(i) r) x0)
  in
  let g2 = Sptensor.symmetrize g2 in
  validate ~g1 ~g2 ~g3:t.g3 ~d1:t.d1 ~b ~c:t.c;
  build ~g1 ~g2 ~g3:t.g3 ~d1:t.d1 ~b ~c:t.c ()

(* Wᵀ f(V xr, u) for test basis W and trial basis V: G1r = Wᵀ G1 V,
   G2r = Wᵀ G2 (V⊗V), G3r = Wᵀ G3 (V⊗V⊗V), D1r = Wᵀ D1 V, br = Wᵀ b,
   cr = C V. The field is Polymap.project's cheaper layout: Wᵀ P(V xr)
   around the full model's field, or G2r + G3r compiled. Callers check
   the bases. *)
let project_onto t ~(w : Mat.t) ~(v : Mat.t) : t =
  let q = Mat.cols v and wt = Mat.transpose w in
  let tensor g arity =
    if Sptensor.is_zero g then Sptensor.zero ~n_out:q ~n_in:q ~arity
    else Sptensor.project ~w g v
  in
  let g2 = tensor t.g2 2 and g3 = tensor t.g3 3 in
  build
    ~field:(Polymap.project ~wt ~v t.field [ g2; g3 ])
    ~g1:(Mat.mul wt (Mat.mul t.g1 v))
    ~g2 ~g3
    ~d1:(Array.map (fun d -> Mat.mul wt (Mat.mul d v)) t.d1)
    ~b:(Mat.mul wt t.b) ~c:(Mat.mul t.c v) ()

(* Petrov-Galerkin (oblique) projection with test basis W and trial
   basis V, assumed bi-orthogonal (Wᵀ V = I): the reduced model follows
   x ≈ V xr, xr' = Wᵀ f(V xr, u). *)
let project_petrov t ~(w : Mat.t) ~(v : Mat.t) : t =
  Contract.require_len "Qldae.project_petrov: V rows" ~expected:t.n
    ~actual:(Mat.rows v);
  Contract.require_len "Qldae.project_petrov: W rows" ~expected:t.n
    ~actual:(Mat.rows w);
  Contract.require_same_len "Qldae.project_petrov: basis widths" (Mat.cols v)
    (Mat.cols w);
  Contract.require_finite "Qldae.project_petrov: V" (Mat.data v);
  Contract.require_finite "Qldae.project_petrov: W" (Mat.data w);
  project_onto t ~w ~v

(* Galerkin projection onto an orthonormal basis V (n x q): W = V. *)
let project t (v : Mat.t) : t =
  Contract.require_len "Qldae.project: basis rows" ~expected:t.n
    ~actual:(Mat.rows v);
  (* Galerkin assumes VᵀV = I; both checks are VMOR_CHECKS-gated *)
  Contract.require_finite "Qldae.project: basis" (Mat.data v);
  Contract.require_orthonormal "Qldae.project: basis" ~rows:(Mat.rows v)
    ~cols:(Mat.cols v) (Mat.data v);
  project_onto t ~w:v ~v
