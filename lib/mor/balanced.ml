(* Square-root balanced truncation (Moore / Laub; the "guaranteed
   passive balancing" lineage of the paper's ref [11]) for the linear
   subsystem, extended to QLDAEs by applying the balancing projectors to
   the full nonlinear model — essentially the Phillips-style projection
   NMOR the paper cites as ref [10], with balanced instead of Krylov
   subspaces.

   Algorithm (Lyapunov.square_root, shared with the Hankel singular
   values of Autoselect.suggest_k1): P = R Rᵀ, Q = S Sᵀ (pivoted
   semi-definite Cholesky of the gramians); the SVD of Sᵀ R — obtained
   from the symmetric eigendecomposition of (SᵀR)ᵀ(SᵀR) — gives Hankel
   singular values Σ and the bi-orthogonal projectors

     V = R V₁ Σ^{-1/2},   W = S U₁ Σ^{-1/2},   Wᵀ V = I. *)

open La
open Volterra

type result = {
  rom : Qldae.t;
  v : Mat.t;  (* trial basis *)
  w : Mat.t;  (* test basis *)
  hsv : float array;  (* all Hankel singular values, descending *)
  order : int;
}

(* The gramian solves own the Hurwitz check: an unstable G1 raises the
   typed Non_hurwitz from the first Lyapunov.solve. *)
let reduce ?(order : int option) ?(tol = 1e-8) (q : Qldae.t) : result =
  let { Lyapunov.r; s; u; hsv = sigma; v = v1 } =
    Lyapunov.square_root ~a:q.Qldae.g1 ~b:q.Qldae.b ~c:q.Qldae.c
  in
  if Mat.cols r = 0 || Mat.cols s = 0 then
    Robust.Error.raise_error
      (Robust.Error.Contract_violation
         {
           loc = Robust.Error.loc ~subsystem:"mor" ~operation:"Balanced.reduce";
           detail = "zero gramian (uncontrollable or unobservable)";
         });
  let kmax = Array.length sigma in
  let k =
    match order with
    | Some k -> min k kmax
    | None ->
      let count = ref 0 in
      Array.iter (fun s -> if s > tol *. sigma.(0) then incr count) sigma;
      !count
  in
  if k = 0 then
    Robust.Error.raise_error
      (Robust.Error.Contract_violation
         {
           loc = Robust.Error.loc ~subsystem:"mor" ~operation:"Balanced.reduce";
           detail = "nothing above tolerance";
         });
  let take m cols = Mat.submatrix m ~row:0 ~col:0 ~rows:(Mat.rows m) ~cols in
  let u1 = take u k and v1 = take v1 k in
  let sincv =
    Mat.diag (Vec.init k (fun i -> 1.0 /. sqrt sigma.(i)))
  in
  let v = Mat.mul r (Mat.mul v1 sincv) in
  let w = Mat.mul s (Mat.mul u1 sincv) in
  let rom = Qldae.project_petrov q ~w ~v in
  { rom; v; w; hsv = sigma; order = k }

(* Result-returning entry point: typed errors (an unstable linear part's
   [Non_hurwitz] among them) are returned, other recognized numerical
   failures map to their taxonomy class. *)
let try_reduce ?order ?tol (q : Qldae.t) :
    (result, Robust.Error.t) Stdlib.result =
  let loc = Robust.Error.loc ~subsystem:"mor" ~operation:"Balanced.reduce" in
  match reduce ?order ?tol q with
  | r -> Ok r
  | exception exn -> (
    match Atmor.classify ~loc exn with
    | Some err -> Error err
    | None -> raise exn)
