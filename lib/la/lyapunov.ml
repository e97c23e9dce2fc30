(* Continuous-time Lyapunov equations A P + P Aᵀ + Q = 0 and Hankel
   singular values — the "measure inherent to linear MOR" the paper's
   §4 suggests for automatic moment-order selection.

   With P row-major, vec(A P + P Aᵀ) = (A ⊗ I + I ⊗ A) vec P = ⊕²A vec P,
   so the equation is the shifted Kronecker-sum solve
   (0·I − ⊕²A) vec P = vec Q: one Schur factorization of A, whose
   eigenvalues also decide stability. *)

(* Solve A P + P Aᵀ + Q = 0 for Hurwitz A (symmetric Q gives symmetric
   P); anything with max Re λ >= -1e-9 raises the typed Non_hurwitz. *)
let solve ~(a : Mat.t) ~(q : Mat.t) : Mat.t =
  Contract.require_square "Lyapunov.solve: a" (Mat.dims a);
  Contract.require_dims "Lyapunov.solve: q" ~expected:(Mat.dims a)
    ~actual:(Mat.dims q);
  let n = Mat.rows a in
  let schur = Schur.decompose a in
  let max_re =
    Array.fold_left
      (fun acc (z : Complex.t) -> Float.max acc z.re)
      Float.neg_infinity (Schur.eigenvalues schur)
  in
  if max_re >= -1e-9 then
    Robust.Error.raise_error
      (Robust.Error.Non_hurwitz
         {
           loc = Robust.Error.loc ~subsystem:"la" ~operation:"Lyapunov.solve";
           max_re;
         });
  let p =
    Ksolve.solve_shifted_real (Ksolve.of_schur ~n schur) ~k:2 ~sigma:0.0
      (Mat.data q)
  in
  (* symmetrize (numerical dust) *)
  Mat.init n n (fun i j -> 0.5 *. (p.((i * n) + j) +. p.((j * n) + i)))

(* Controllability gramian: A P + P Aᵀ + B Bᵀ = 0. *)
let controllability ~(a : Mat.t) ~(b : Mat.t) : Mat.t =
  Contract.require "Lyapunov.controllability" (Mat.rows b = Mat.rows a)
    "dimension mismatch"
    (Printf.sprintf "b has %d rows, a is %dx%d" (Mat.rows b) (Mat.rows a)
       (Mat.cols a));
  solve ~a ~q:(Mat.mul b (Mat.transpose b))

(* Observability gramian: Aᵀ Q + Q A + Cᵀ C = 0. *)
let observability ~(a : Mat.t) ~(c : Mat.t) : Mat.t =
  Contract.require "Lyapunov.observability" (Mat.cols c = Mat.rows a)
    "dimension mismatch"
    (Printf.sprintf "c has %d cols, a is %dx%d" (Mat.cols c) (Mat.rows a)
       (Mat.cols a));
  solve ~a:(Mat.transpose a) ~q:(Mat.mul (Mat.transpose c) c)

(* Hankel singular values: sqrt of the eigenvalues of P Q. The product
   of two symmetric PSD matrices has real non-negative spectrum; we read
   it off the complex Schur diagonal and clip rounding noise. *)
let hankel_singular_values ~(a : Mat.t) ~(b : Mat.t) ~(c : Mat.t) :
    float array =
  let p = controllability ~a ~b in
  let q = observability ~a ~c in
  let eigs = Schur.eigenvalues (Schur.decompose (Mat.mul p q)) in
  let svs =
    Array.map (fun (z : Complex.t) -> sqrt (Float.max 0.0 z.re)) eigs
  in
  Array.sort (fun x y -> compare y x) svs;
  svs

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
