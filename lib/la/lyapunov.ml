(* Continuous-time Lyapunov equations A P + P Aᵀ + Q = 0 and Hankel
   singular values — the "measure inherent to linear MOR" the paper's
   §4 suggests for automatic moment-order selection — computed once,
   the square-root way, for both of their users (Balanced,
   Autoselect.suggest_k1).

   With P row-major, vec(A P + P Aᵀ) = (A ⊗ I + I ⊗ A) vec P = ⊕²A vec P,
   so the equation is the shifted Kronecker-sum solve
   (0·I − ⊕²A) vec P = vec Q: one Schur factorization of A, whose
   eigenvalues also decide stability. The observability equation is the
   same solve for Aᵀ, on the transposed factors of the same
   factorization (Ksolve.transpose). *)

(* Solve A P + P Aᵀ + Q = 0 for Hurwitz A (symmetric Q gives symmetric
   P) on A's solver [ks]; anything with max Re λ >= -1e-9 raises the
   typed Non_hurwitz. *)
let solve_on ks ~(q : Mat.t) : Mat.t =
  let n = Mat.rows q in
  let max_re =
    Array.fold_left
      (fun acc (z : Complex.t) -> Float.max acc z.re)
      Float.neg_infinity
      (Schur.eigenvalues (Ksolve.schur ks))
  in
  if max_re >= -1e-9 then
    Robust.Error.raise_error
      (Robust.Error.Non_hurwitz
         {
           loc = Robust.Error.loc ~subsystem:"la" ~operation:"Lyapunov.solve";
           max_re;
         });
  let p = Ksolve.solve_shifted_real ks ~k:2 ~sigma:0.0 (Mat.data q) in
  (* symmetrize (numerical dust) *)
  Mat.init n n (fun i j -> 0.5 *. (p.((i * n) + j) +. p.((j * n) + i)))

let solve ~(a : Mat.t) ~(q : Mat.t) : Mat.t =
  Contract.require_square "Lyapunov.solve: a" (Mat.dims a);
  Contract.require_dims "Lyapunov.solve: q" ~expected:(Mat.dims a)
    ~actual:(Mat.dims q);
  solve_on (Ksolve.prepare a) ~q

(* The right-hand sides: B Bᵀ of the controllability equation, Cᵀ C
   of the observability one. *)
let input_gram ~(a : Mat.t) ~(b : Mat.t) =
  Contract.require "Lyapunov.controllability" (Mat.rows b = Mat.rows a)
    "dimension mismatch"
    (Printf.sprintf "b has %d rows, a is %dx%d" (Mat.rows b) (Mat.rows a)
       (Mat.cols a));
  Mat.mul b (Mat.transpose b)

let output_gram ~(a : Mat.t) ~(c : Mat.t) =
  Contract.require "Lyapunov.observability" (Mat.cols c = Mat.rows a)
    "dimension mismatch"
    (Printf.sprintf "c has %d cols, a is %dx%d" (Mat.cols c) (Mat.rows a)
       (Mat.cols a));
  Mat.mul (Mat.transpose c) c

(* Controllability gramian: A P + P Aᵀ + B Bᵀ = 0. *)
let controllability ~a ~b = solve ~a ~q:(input_gram ~a ~b)

(* Observability gramian: Aᵀ Q + Q A + Cᵀ C = 0, the solve for Aᵀ on
   the transposed factors of A's. *)
let observability ~a ~c =
  let q = output_gram ~a ~c in
  solve_on (Ksolve.transpose (Ksolve.prepare a)) ~q

(* SVD of a (small) dense matrix M = U Σ Vᵀ via the symmetric
   eigendecomposition of MᵀM; only singular values above [tol] * largest
   are kept. *)
let thin_svd ?(tol = 1e-10) (m : Mat.t) : Mat.t * float array * Mat.t =
  let mtm = Mat.mul (Mat.transpose m) m in
  let { Symeig.values; vectors } = Symeig.decompose_sorted mtm in
  let smax = sqrt (Float.max 0.0 values.(0)) in
  let rank = ref 0 in
  Array.iter
    (fun lam -> if sqrt (Float.max 0.0 lam) > tol *. smax then incr rank)
    values;
  let rank = !rank in
  let sigma = Array.init rank (fun i -> sqrt (Float.max 0.0 values.(i))) in
  let v1 = Mat.submatrix vectors ~row:0 ~col:0 ~rows:(Mat.rows vectors) ~cols:rank in
  (* U = M V Σ^-1 *)
  let u = Mat.mul m v1 in
  for j = 0 to rank - 1 do
    for i = 0 to Mat.rows u - 1 do
      Mat.set u i j (Mat.get u i j /. sigma.(j))
    done
  done;
  (u, sigma, v1)

type square_root = {
  r : Mat.t;
  s : Mat.t;
  u : Mat.t;
  hsv : float array;
  v : Mat.t;
}

(* The square-root method: P = R Rᵀ, Q = S Sᵀ (pivoted semi-definite
   Cholesky), then the thin SVD Sᵀ R = U Σ Vᵀ. Σ are the Hankel
   singular values, accurate down to the rounding of the factors, where
   the eigenvalues of the nonsymmetric P Q are not. A zero gramian has
   no singular values. Both gramians run on one Schur factorization of
   A. *)
let square_root ~(a : Mat.t) ~(b : Mat.t) ~(c : Mat.t) : square_root =
  let ks = Ksolve.prepare a in
  let r = Chol.factor_semidefinite (solve_on ks ~q:(input_gram ~a ~b)) in
  let s =
    Chol.factor_semidefinite (solve_on (Ksolve.transpose ks) ~q:(output_gram ~a ~c))
  in
  if Mat.cols r = 0 || Mat.cols s = 0 then
    {
      r;
      s;
      u = Mat.create (Mat.cols s) 0;
      hsv = [||];
      v = Mat.create (Mat.cols r) 0;
    }
  else begin
    let u, hsv, v = thin_svd (Mat.mul (Mat.transpose s) r) in
    { r; s; u; hsv; v }
  end

let hankel_singular_values ~a ~b ~c = (square_root ~a ~b ~c).hsv

(* Number of Hankel singular values above [tol] relative to the largest
   — a principled reduced-order suggestion for an LTI system. *)
let suggested_order ?(tol = 1e-6) ~a ~b ~c () =
  let svs = hankel_singular_values ~a ~b ~c in
  if Array.length svs = 0 || Contract.is_zero svs.(0) then 0
  else begin
    let count = ref 0 in
    Array.iter (fun s -> if s > tol *. svs.(0) then incr count) svs;
    !count
  end
