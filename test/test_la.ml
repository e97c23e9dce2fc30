(* Tests for the dense/complex linear algebra substrate. *)

open La

let rng = Random.State.make [| 0x5eed; 42 |]

let check_float name expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.6g, got %.6g)" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

(* A random matrix shifted to be comfortably stable (eigenvalues in the
   open left half-plane), the generic input for Schur/Sylvester/Kron
   tests. *)
let random_stable n =
  let a = Mat.random ~rng n n in
  Mat.sub (Mat.scale 0.5 a) (Mat.scale (0.6 *. float_of_int n) (Mat.identity n))

(* ---------- Vec ---------- *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  check_float "norm1" 6.0 (Vec.norm1 v) 1e-15;
  check_float "norm_inf" 3.0 (Vec.norm_inf v) 1e-15;
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v) 1e-12;
  let w = Vec.basis 3 1 in
  check_float "dot with basis" (-2.0) (Vec.dot v w) 1e-15;
  Alcotest.(check int) "max_abs_index" 2 (Vec.max_abs_index v)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; 2.0 ] and y = Vec.of_list [ 10.0; 20.0 ] in
  Vec.axpy ~alpha:3.0 x y;
  Alcotest.(check bool) "axpy" true (Vec.approx_equal y (Vec.of_list [ 13.0; 26.0 ]))

let test_vec_rel_err () =
  let exact = Vec.of_list [ 2.0; 0.0 ] in
  let approx = Vec.of_list [ 2.0; 0.02 ] in
  check_float "rel_err" 0.01 (Vec.rel_err ~exact ~approx) 1e-12;
  check_float "rel_err zero exact" 1.0
    (Vec.rel_err ~exact:(Vec.create 2) ~approx:(Vec.of_list [ 1.0; 0.0 ]))
    1e-12

let test_vec_slice_concat () =
  let v = Vec.init 6 float_of_int in
  let s = Vec.slice v ~pos:2 ~len:3 in
  Alcotest.(check bool) "slice" true (Vec.approx_equal s (Vec.of_list [ 2.; 3.; 4. ]));
  let c = Vec.concat [ Vec.of_list [ 0.; 1. ]; Vec.of_list [ 2. ] ] in
  Alcotest.(check bool) "concat" true (Vec.approx_equal c (Vec.of_list [ 0.; 1.; 2. ]))

(* ---------- Mat ---------- *)

let test_mat_mul () =
  let a = Mat.of_list [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = Mat.of_list [ [ 5.; 6. ]; [ 7.; 8. ] ] in
  let c = Mat.mul a b in
  Alcotest.(check bool) "2x2 product" true
    (Mat.approx_equal c (Mat.of_list [ [ 19.; 22. ]; [ 43.; 50. ] ]))

let test_mat_mul_vec () =
  let a = Mat.of_list [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  let v = Vec.of_list [ 1.; 0.; -1. ] in
  Alcotest.(check bool) "mat*vec" true
    (Vec.approx_equal (Mat.mul_vec a v) (Vec.of_list [ -2.; -2. ]));
  let w = Vec.of_list [ 1.; 1. ] in
  Alcotest.(check bool) "matT*vec" true
    (Vec.approx_equal (Mat.mul_vec_transpose a w) (Vec.of_list [ 5.; 7.; 9. ]))

let test_mat_transpose_assoc () =
  let a = Mat.random ~rng 4 3 and b = Mat.random ~rng 3 5 in
  let lhs = Mat.transpose (Mat.mul a b) in
  let rhs = Mat.mul (Mat.transpose b) (Mat.transpose a) in
  check_small "(AB)^T = B^T A^T" (Mat.norm_fro (Mat.sub lhs rhs)) 1e-12

let test_mat_blocks () =
  let a = Mat.of_list [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let b = Mat.identity 2 in
  let h = Mat.hcat a b in
  Alcotest.(check (pair int int)) "hcat dims" (2, 4) (Mat.dims h);
  check_float "hcat entry" 1.0 (Mat.get h 0 2) 1e-15;
  let v = Mat.vcat a b in
  Alcotest.(check (pair int int)) "vcat dims" (4, 2) (Mat.dims v);
  let s = Mat.submatrix h ~row:0 ~col:2 ~rows:2 ~cols:2 in
  Alcotest.(check bool) "submatrix" true (Mat.approx_equal s b)

let test_mat_gemv () =
  let a = Mat.of_list [ [ 2.; 0. ]; [ 0.; 3. ] ] in
  let v = Vec.of_list [ 1.; 1. ] in
  let out = Vec.of_list [ 100.; 100. ] in
  Mat.gemv ~alpha:2.0 ~beta:0.5 a v out;
  Alcotest.(check bool) "gemv" true
    (Vec.approx_equal out (Vec.of_list [ 54.; 56. ]))

(* ---------- Lu ---------- *)

let test_lu_solve () =
  let a = random_stable 12 in
  let x = Mat.random_vec ~rng 12 in
  let b = Mat.mul_vec a x in
  let x' = Lu.solve_system a b in
  check_small "LU solve residual" (Vec.dist2 x x') 1e-9

let test_lu_det_identity () =
  check_float "det I" 1.0 (Lu.det (Lu.factor (Mat.identity 5))) 1e-12;
  let d = Mat.diag (Vec.of_list [ 2.0; -3.0; 0.5 ]) in
  check_float "det diag" (-3.0) (Lu.det (Lu.factor d)) 1e-12

let test_lu_singular () =
  let a = Mat.of_list [ [ 1.; 2. ]; [ 2.; 4. ] ] in
  Alcotest.check_raises "singular raises" (Lu.Singular 1) (fun () ->
      ignore (Lu.factor a))

let test_lu_inverse () =
  let a = random_stable 8 in
  let inv = Lu.inverse (Lu.factor a) in
  check_small "A * A^-1 = I"
    (Mat.norm_fro (Mat.sub (Mat.mul a inv) (Mat.identity 8)))
    1e-9

(* ---------- Qr ---------- *)

let test_qr_reconstruct () =
  let a = Mat.random ~rng 8 5 in
  let f = Qr.factor a in
  let q = Qr.thin_q f and r = Qr.r f in
  check_small "QR reconstruct" (Mat.norm_fro (Mat.sub (Mat.mul q r) a)) 1e-10;
  check_small "Q^T Q = I"
    (Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose q) q) (Mat.identity 5)))
    1e-10

let test_qr_least_squares () =
  (* Overdetermined consistent system has the exact solution. *)
  let a = Mat.random ~rng 10 4 in
  let x = Mat.random_vec ~rng 4 in
  let b = Mat.mul_vec a x in
  let x' = Qr.least_squares a b in
  check_small "LS exact solve" (Vec.dist2 x x') 1e-9

let test_orthonormalize_dedup () =
  let v1 = Vec.of_list [ 1.; 0.; 0. ] in
  let v2 = Vec.of_list [ 1.; 1e-14; 0. ] in
  (* nearly parallel *)
  let v3 = Vec.of_list [ 0.; 0.; 2. ] in
  let basis = Qr.orthonormalize [ v1; v2; v3 ] in
  Alcotest.(check int) "deflation drops duplicate" 2 (List.length basis);
  List.iter (fun q -> check_float "unit norm" 1.0 (Vec.norm2 q) 1e-12) basis

let test_orthonormalize_orthogonality () =
  let vs = List.init 6 (fun _ -> Mat.random_vec ~rng 10) in
  let basis = Qr.orthonormalize vs in
  Alcotest.(check int) "full rank kept" 6 (List.length basis);
  List.iteri
    (fun i qi ->
      List.iteri
        (fun j qj ->
          if i < j then check_small "orthogonal" (Float.abs (Vec.dot qi qj)) 1e-12)
        basis)
    basis

let test_qr_rank () =
  let a = Mat.random ~rng 6 3 in
  let aa = Mat.hcat a a in
  Alcotest.(check int) "rank of [A A]" 3 (Qr.rank aa);
  Alcotest.(check int) "rank of zero" 0 (Qr.rank (Mat.create 4 4))

(* ---------- Kron ---------- *)

let test_kron_vec () =
  let u = Vec.of_list [ 1.; 2. ] and v = Vec.of_list [ 3.; 4.; 5. ] in
  let k = Kron.vec u v in
  Alcotest.(check bool) "u kron v" true
    (Vec.approx_equal k (Vec.of_list [ 3.; 4.; 5.; 6.; 8.; 10. ]))

let test_kron_mixed_product () =
  let a = Mat.random ~rng 3 3 and b = Mat.random ~rng 2 2 in
  let u = Mat.random_vec ~rng 3 and v = Mat.random_vec ~rng 2 in
  let lhs = Mat.mul_vec (Kron.mat a b) (Kron.vec u v) in
  let rhs = Kron.vec (Mat.mul_vec a u) (Mat.mul_vec b v) in
  check_small "(A kron B)(u kron v) = Au kron Bv" (Vec.dist2 lhs rhs) 1e-12

let test_kron_mat_mul_vec () =
  let a = Mat.random ~rng 3 2 and b = Mat.random ~rng 4 5 in
  let x = Mat.random_vec ~rng 10 in
  let lhs = Mat.mul_vec (Kron.mat a b) x in
  let rhs = Kron.mat_mul_vec_2 a b x in
  check_small "structured (A kron B) x" (Vec.dist2 lhs rhs) 1e-12

let test_kron_sum_structured () =
  let a = Mat.random ~rng 3 3 and b = Mat.random ~rng 4 4 in
  let x = Mat.random_vec ~rng 12 in
  let lhs = Mat.mul_vec (Kron.sum a b) x in
  let rhs = Kron.sum_mul_vec a b x in
  check_small "structured (A ⊕ B) x" (Vec.dist2 lhs rhs) 1e-12

let test_kron_sum_exp_identity () =
  (* e^(A ⊕ B) = e^A kron e^B — the identity behind the paper's
     Theorem 1. *)
  let a = Mat.scale 0.3 (Mat.random ~rng 3 3) in
  let b = Mat.scale 0.3 (Mat.random ~rng 2 2) in
  let lhs = Expm.expm (Kron.sum a b) in
  let rhs = Kron.mat (Expm.expm a) (Expm.expm b) in
  check_small "exp(A⊕B) = expA ⊗ expB" (Mat.norm_fro (Mat.sub lhs rhs)) 1e-10

let test_kron_sym2 () =
  let x = Vec.of_list [ 1.; 2.; 3.; 4. ] in
  let s = Kron.sym2 2 x in
  Alcotest.(check bool) "sym2" true
    (Vec.approx_equal s (Vec.of_list [ 1.; 2.5; 2.5; 4. ]))

(* ---------- Expm ---------- *)

let test_expm_diag () =
  let a = Mat.diag (Vec.of_list [ 0.0; 1.0; -2.0 ]) in
  let e = Expm.expm a in
  check_float "e^0" 1.0 (Mat.get e 0 0) 1e-12;
  check_float "e^1" (Float.exp 1.0) (Mat.get e 1 1) 1e-10;
  check_float "e^-2" (Float.exp (-2.0)) (Mat.get e 2 2) 1e-10

let test_expm_inverse_property () =
  let a = Mat.random ~rng 5 5 in
  let p = Mat.mul (Expm.expm a) (Expm.expm (Mat.neg a)) in
  check_small "e^A e^-A = I" (Mat.norm_fro (Mat.sub p (Mat.identity 5))) 1e-8

let test_expm_rotation () =
  (* exp of a rotation generator gives cos/sin. *)
  let theta = 0.7 in
  let a = Mat.of_list [ [ 0.; -.theta ]; [ theta; 0. ] ] in
  let e = Expm.expm a in
  check_float "cos" (cos theta) (Mat.get e 0 0) 1e-12;
  check_float "sin" (sin theta) (Mat.get e 1 0) 1e-12

let test_expm_large_norm () =
  (* scaling & squaring handles a matrix with big norm *)
  let a = Mat.scale 30.0 (Mat.of_list [ [ -1.; 0.5 ]; [ 0.25; -2. ] ]) in
  let e = Expm.expm a in
  (* compare against squaring e^(A/2) *)
  let h = Expm.expm (Mat.scale 0.5 a) in
  check_small "e^A = (e^(A/2))^2" (Mat.norm_fro (Mat.sub e (Mat.mul h h))) 1e-8

(* ---------- Cvec / Cmat / Clu ---------- *)

let test_cvec_dot () =
  let a = Cvec.init 2 (fun i -> { Complex.re = float_of_int (i + 1); im = 1.0 }) in
  let d = Cvec.dot a a in
  check_float "self dot is |a|^2" (1.0 +. 1.0 +. 4.0 +. 1.0) d.Complex.re 1e-12;
  check_float "self dot imag" 0.0 d.Complex.im 1e-12

let test_cvec_kron () =
  let u = Cvec.of_real (Vec.of_list [ 1.; 2. ]) in
  let v = Cvec.of_real (Vec.of_list [ 3.; 4. ]) in
  let k = Cvec.kron u v in
  Alcotest.(check bool) "complex kron matches real" true
    (Vec.approx_equal (Cvec.real_part k) (Vec.of_list [ 3.; 4.; 6.; 8. ]))

let test_cmat_mul_adjoint () =
  let a =
    Cmat.init 3 3 (fun i j ->
        {
          Complex.re = Random.State.float rng 1.0;
          im = Random.State.float rng 1.0;
        })
  in
  ignore a;
  let v = Cvec.init 3 (fun _ -> { Complex.re = Random.State.float rng 1.0; im = 0.3 }) in
  let lhs = Cmat.mul_vec (Cmat.adjoint a) v in
  let rhs = Cmat.mul_vec_adjoint a v in
  check_small "A^H v structured" (Cvec.dist lhs rhs) 1e-12

let test_clu_solve () =
  let n = 10 in
  let a =
    Cmat.init n n (fun i j ->
        let d = if i = j then 5.0 else 0.0 in
        {
          Complex.re = d +. Random.State.float rng 1.0;
          im = Random.State.float rng 1.0;
        })
  in
  let x = Cvec.init n (fun _ -> { Complex.re = Random.State.float rng 1.0; im = Random.State.float rng 1.0 }) in
  let b = Cmat.mul_vec a x in
  let x' = Clu.solve_system a b in
  check_small "complex LU residual" (Cvec.dist x x') 1e-9

let test_clu_solve_shifted () =
  let a = random_stable 6 in
  let sigma = { Complex.re = 0.5; im = 2.0 } in
  let b = Cvec.of_real (Mat.random_vec ~rng 6) in
  let x = Clu.solve_shifted a sigma b in
  (* residual: (sigma I - A) x - b *)
  let ax = Cmat.mul_vec (Cmat.of_real a) x in
  let r = Cvec.sub (Cvec.sub (Cvec.scale sigma x) ax) b in
  check_small "shifted solve residual" (Cvec.norm2 r) 1e-9

(* ---------- Schur ---------- *)

let test_schur_residual () =
  let a = random_stable 15 in
  let s = Schur.decompose a in
  check_small "Schur residual" (Schur.residual ~a s) 1e-9;
  let u = Schur.unitary s in
  let uhu = Cmat.mul (Cmat.adjoint u) u in
  check_small "U unitary"
    (Cmat.norm_fro (Cmat.sub uhu (Cmat.identity 15)))
    1e-9

let test_schur_triangular () =
  let a = random_stable 12 in
  let s = Schur.decompose a in
  let t = Schur.triangular s in
  let low = ref 0.0 in
  for i = 0 to 11 do
    for j = 0 to i - 1 do
      low := !low +. Complex.norm2 (Cmat.get t i j)
    done
  done;
  check_small "strictly lower is zero" (sqrt !low) 1e-12

let test_schur_eigenvalues_2x2 () =
  (* [[0, -1], [1, 0]] has eigenvalues ±i. *)
  let a = Mat.of_list [ [ 0.; -1. ]; [ 1.; 0. ] ] in
  let eigs = Schur.eigenvalues (Schur.decompose a) in
  let ims = Array.map (fun (z : Complex.t) -> z.im) eigs in
  Array.sort compare ims;
  check_float "eig -i" (-1.0) ims.(0) 1e-10;
  check_float "eig +i" 1.0 ims.(1) 1e-10;
  Array.iter (fun (z : Complex.t) -> check_float "real part" 0.0 z.re 1e-10) eigs

let test_schur_eigenvalues_sum_trace () =
  let a = random_stable 10 in
  let eigs = Schur.eigenvalues (Schur.decompose a) in
  let s = Array.fold_left (fun acc (z : Complex.t) -> acc +. z.re) 0.0 eigs in
  check_float "sum of eigs = trace" (Mat.trace a) s 1e-8

let test_schur_defective () =
  (* A Jordan block — defective, still has a Schur form. *)
  let a = Mat.of_list [ [ 2.; 1.; 0. ]; [ 0.; 2.; 1. ]; [ 0.; 0.; 2. ] ] in
  let s = Schur.decompose a in
  check_small "Jordan block residual" (Schur.residual ~a s) 1e-9

(* ---------- Ksolve ---------- *)

let test_ksolve_k1 () =
  let a = random_stable 8 in
  let ks = Ksolve.prepare a in
  let v = Mat.random_vec ~rng 8 in
  let x = Ksolve.solve_shifted_real ks ~k:1 ~sigma:0.0 v in
  let r = Ksolve.apply_shifted ~g:a ~k:1 ~sigma:0.0 x in
  check_small "k=1 residual" (Vec.dist2 r v) 1e-8

let test_ksolve_k2_vs_dense () =
  let n = 6 in
  let a = random_stable n in
  let ks = Ksolve.prepare a in
  let v = Mat.random_vec ~rng (n * n) in
  let x = Ksolve.solve_shifted_real ks ~k:2 ~sigma:0.3 v in
  (* dense reference *)
  let big = Mat.sub (Mat.scale 0.3 (Mat.identity (n * n))) (Kron.sum_pow a 2) in
  let x_ref = Lu.solve_system big v in
  check_small "k=2 matches dense" (Vec.dist2 x x_ref) 1e-7

let test_ksolve_k3_vs_dense () =
  let n = 4 in
  let a = random_stable n in
  let ks = Ksolve.prepare a in
  let v = Mat.random_vec ~rng (n * n * n) in
  let x = Ksolve.solve_shifted_real ks ~k:3 ~sigma:0.0 v in
  let big = Mat.scale (-1.0) (Kron.sum_pow a 3) in
  let x_ref = Lu.solve_system big v in
  check_small "k=3 matches dense" (Vec.dist2 x x_ref) 1e-7

let test_ksolve_complex_shift () =
  let n = 5 in
  let a = random_stable n in
  let ks = Ksolve.prepare a in
  let sigma = { Complex.re = 0.2; im = 1.5 } in
  let v = Cvec.of_real (Mat.random_vec ~rng (n * n)) in
  let x = Ksolve.solve_shifted ks ~k:2 ~sigma v in
  (* residual via dense complex *)
  let big = Cmat.of_real (Kron.sum_pow a 2) in
  let ax = Cmat.mul_vec big x in
  let r = Cvec.sub (Cvec.sub (Cvec.scale sigma x) ax) v in
  check_small "complex shift residual" (Cvec.norm2 r) 1e-8

let test_ksolve_mode_mul () =
  let n = 3 in
  let a = Mat.random ~rng n n in
  let x = Mat.random_vec ~rng (n * n) in
  (* mode 0 multiply = (A kron I) x; mode 1 = (I kron A) x *)
  let m0 = Ksolve.mode_mul_real ~n ~k:2 ~m:0 a x in
  let ref0 = Kron.mat_mul_vec_2 a (Mat.identity n) x in
  check_small "mode 0" (Vec.dist2 m0 ref0) 1e-12;
  let m1 = Ksolve.mode_mul_real ~n ~k:2 ~m:1 a x in
  let ref1 = Kron.mat_mul_vec_2 (Mat.identity n) a x in
  check_small "mode 1" (Vec.dist2 m1 ref1) 1e-12

let test_ksolve_theorem1 () =
  (* Theorem 1 consistency in resolvent form: for the associated
     transform, (sI - A1 ⊕ A2)^-1 (b1 ⊗ b2) must equal what the
     structured solver returns for k = 2 with A1 = A2. *)
  let n = 5 in
  let a = random_stable n in
  let b = Mat.random_vec ~rng n in
  let ks = Ksolve.prepare a in
  let rhs = Kron.vec b b in
  let x = Ksolve.solve_shifted_real ks ~k:2 ~sigma:1.0 rhs in
  let dense = Mat.sub (Mat.identity (n * n)) (Kron.sum a a) in
  let x_ref = Lu.solve_system dense rhs in
  check_small "resolvent of Kronecker sum" (Vec.dist2 x x_ref) 1e-8

(* ---------- Sylvester ---------- *)

let test_sylvester_generic () =
  let a = random_stable 7 in
  let b = Mat.scale (-1.0) (random_stable 5) in
  (* spectra disjoint: a stable, -b anti-stable *)
  let c = Mat.random ~rng 7 5 in
  let x = Sylvester.solve ~a ~b ~c in
  check_small "generic Sylvester residual" (Sylvester.residual ~a ~b ~c ~x) 1e-8

let test_sylvester_pi () =
  let n = 5 in
  let g1 = random_stable n in
  let g2 = Mat.random ~rng n (n * n) in
  let schur = Schur.decompose g1 in
  let pi = Sylvester.solve_pi_schur ~schur ~g2 in
  (* check G1 Pi + G2 = Pi (⊕² G1) *)
  let lhs = Mat.add (Mat.mul g1 pi) g2 in
  let rhs = Mat.mul pi (Kron.sum_pow g1 2) in
  check_small "paper eq.18 Sylvester" (Mat.norm_fro (Mat.sub lhs rhs)) 1e-7

(* ---------- Sptensor ---------- *)

let test_sptensor_apply () =
  (* bilinear map on R^2: f(x, y) = [x0*y1; 2*x1*y0] *)
  let t =
    Sptensor.create ~n_out:2 ~n_in:2 ~arity:2
      [ (0, [| 0; 1 |], 1.0); (1, [| 1; 0 |], 2.0) ]
  in
  let x = Vec.of_list [ 3.; 4. ] and y = Vec.of_list [ 5.; 6. ] in
  let out = Sptensor.apply_kron t [| x; y |] in
  Alcotest.(check bool) "apply_kron" true
    (Vec.approx_equal out (Vec.of_list [ 18.; 40. ]));
  let flat = Sptensor.apply_flat t (Kron.vec x y) in
  Alcotest.(check bool) "apply_flat agrees" true (Vec.approx_equal out flat)

let test_sptensor_dense_roundtrip () =
  let t =
    Sptensor.create ~n_out:3 ~n_in:3 ~arity:2
      [ (0, [| 0; 1 |], 1.5); (2, [| 2; 2 |], -2.0); (1, [| 0; 0 |], 0.5) ]
  in
  let d = Sptensor.to_dense t in
  let t' = Sptensor.of_dense ~arity:2 ~n_in:3 d in
  let x = Mat.random_vec ~rng 9 in
  check_small "dense roundtrip"
    (Vec.dist2 (Sptensor.apply_flat t x) (Sptensor.apply_flat t' x))
    1e-12

(* Reference M x^⊗k: the same vector in every Kronecker slot. *)
let sptensor_pow t x = Sptensor.apply_kron t (Array.make (Sptensor.arity t) x)

let polymap_apply p x =
  let out = Vec.create (Array.length x) in
  Polymap.apply_add p ~scratch:(Polymap.scratch p) x out;
  out

let test_sptensor_jacobian () =
  (* f(x) = G2 x ⊗ x + G3 x ⊗ x ⊗ x, compiled onto monomials;
     J(x) h ≈ (f(x + eps h) - f(x - eps h)) / 2 eps *)
  let g2 =
    Sptensor.create ~n_out:2 ~n_in:2 ~arity:2
      [ (0, [| 0; 1 |], 1.0); (1, [| 1; 1 |], 3.0); (0, [| 0; 0 |], -1.0) ]
  and g3 =
    Sptensor.create ~n_out:2 ~n_in:2 ~arity:3
      [ (1, [| 1; 0; 1 |], 0.5); (0, [| 0; 0; 0 |], 2.0); (1, [| 0; 1; 1 |], -1.5) ]
  in
  let p = Polymap.compile [ g2; g3 ] in
  let f x = Vec.add (sptensor_pow g2 x) (sptensor_pow g3 x) in
  let x = Vec.of_list [ 0.7; -0.4 ] in
  check_small "apply matches apply_kron" (Vec.dist2 (polymap_apply p x) (f x)) 1e-14;
  let jac = Mat.create 2 2 in
  Polymap.jacobian_add p x jac;
  let h = Vec.of_list [ 0.3; 0.9 ] in
  let eps = 1e-6 in
  let fd =
    Vec.scale (0.5 /. eps)
      (Vec.sub (f (Vec.add x (Vec.scale eps h))) (f (Vec.sub x (Vec.scale eps h))))
  in
  check_small "jacobian matches finite difference"
    (Vec.dist2 (Mat.mul_vec jac h) fd)
    1e-8

let test_sptensor_project () =
  let n = 4 and q = 2 in
  let dense = Mat.random ~rng n (n * n) in
  let t = Sptensor.of_dense ~arity:2 ~n_in:n dense in
  let v = Qr.orth_mat (List.init q (fun _ -> Mat.random_vec ~rng n)) in
  let reduced = Sptensor.project t v in
  (* reference: V^T M (V kron V) *)
  let vk = Kron.mat v v in
  let reference = Mat.mul (Mat.transpose v) (Mat.mul dense vk) in
  check_small "projection" (Mat.norm_fro (Mat.sub reduced reference)) 1e-10

let test_sptensor_symmetrize () =
  let t =
    Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (0, [| 0; 1 |], 2.0) ]
  in
  let s = Sptensor.symmetrize t in
  let x = Mat.random_vec ~rng 2 in
  check_small "symmetrize preserves diagonal action"
    (Vec.dist2 (sptensor_pow t x) (sptensor_pow s x))
    1e-12;
  (* both orderings fold back onto the one monomial x_0 x_1 *)
  let p = Polymap.compile [ s ] in
  Alcotest.(check int) "one monomial" 1 (Polymap.n_monomials p);
  Alcotest.(check int) "one coefficient" 1 (Polymap.nnz p);
  check_small "compiled action" (Vec.dist2 (polymap_apply p x) (sptensor_pow t x)) 1e-12;
  (* symmetrized coefficients: entry (0,(0,1)) and (0,(1,0)) each 1.0 *)
  let d = Sptensor.to_dense s in
  check_float "coeff split" 1.0 (Mat.get d 0 1) 1e-12;
  check_float "coeff split" 1.0 (Mat.get d 0 2) 1e-12

(* ---------- qcheck properties ---------- *)

let small_mat_gen n =
  QCheck2.Gen.(
    array_size (return (n * n)) (float_bound_inclusive 1.0)
    |> map (fun data ->
           Mat.init n n (fun i j -> data.((i * n) + j) -. 0.5)))

let qcheck_lu_solve =
  QCheck2.Test.make ~name:"lu: A (A^-1 b) = b for diagonally dominant A"
    ~count:50
    QCheck2.Gen.(pair (small_mat_gen 5) (array_size (return 5) (float_bound_inclusive 1.0)))
    (fun (m, barr) ->
      let a = Mat.add m (Mat.scale 6.0 (Mat.identity 5)) in
      let b = Vec.of_array barr in
      let x = Lu.solve_system a b in
      Vec.dist2 (Mat.mul_vec a x) b < 1e-8)

let qcheck_kron_bilinear =
  QCheck2.Test.make ~name:"kron: (u+w) ⊗ v = u ⊗ v + w ⊗ v" ~count:100
    QCheck2.Gen.(
      triple
        (array_size (return 4) (float_bound_inclusive 1.0))
        (array_size (return 4) (float_bound_inclusive 1.0))
        (array_size (return 3) (float_bound_inclusive 1.0)))
    (fun (u, w, v) ->
      let lhs = Kron.vec (Vec.add u w) v in
      let rhs = Vec.add (Kron.vec u v) (Kron.vec w v) in
      Vec.dist2 lhs rhs < 1e-10)

let qcheck_schur_eig_residual =
  QCheck2.Test.make ~name:"schur: residual small on random stable" ~count:20
    (small_mat_gen 7) (fun m ->
      let a = Mat.sub m (Mat.scale 4.0 (Mat.identity 7)) in
      Schur.residual ~a (Schur.decompose a) < 1e-8)

let qcheck_orth_idempotent =
  QCheck2.Test.make ~name:"qr: orthonormalize output is orthonormal" ~count:50
    QCheck2.Gen.(
      list_size (int_range 1 6) (array_size (return 8) (float_bound_inclusive 1.0)))
    (fun vs ->
      let basis = Qr.orthonormalize (List.map Vec.of_array vs) in
      List.for_all
        (fun q -> Float.abs (Vec.norm2 q -. 1.0) < 1e-9)
        basis
      && List.for_all
           (fun (qi, qj) -> Float.abs (Vec.dot qi qj) < 1e-9)
           (List.concat_map
              (fun qi ->
                List.filter_map
                  (fun qj -> if qi != qj then Some (qi, qj) else None)
                  basis)
              basis))

let qcheck_expm_commuting =
  QCheck2.Test.make ~name:"expm: e^(sA) e^(tA) = e^((s+t)A)" ~count:20
    QCheck2.Gen.(
      triple (small_mat_gen 4)
        (float_bound_inclusive 1.0)
        (float_bound_inclusive 1.0))
    (fun (a, s, t) ->
      let lhs = Mat.mul (Expm.expm (Mat.scale s a)) (Expm.expm (Mat.scale t a)) in
      let rhs = Expm.expm (Mat.scale (s +. t) a) in
      Mat.norm_fro (Mat.sub lhs rhs) < 1e-8)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "la.vec",
      [
        tc "basic norms and dot" `Quick test_vec_basic;
        tc "axpy" `Quick test_vec_axpy;
        tc "relative error" `Quick test_vec_rel_err;
        tc "slice and concat" `Quick test_vec_slice_concat;
      ] );
    ( "la.mat",
      [
        tc "2x2 multiply" `Quick test_mat_mul;
        tc "matrix-vector products" `Quick test_mat_mul_vec;
        tc "transpose of product" `Quick test_mat_transpose_assoc;
        tc "block concat and submatrix" `Quick test_mat_blocks;
        tc "gemv alpha beta" `Quick test_mat_gemv;
      ] );
    ( "la.lu",
      [
        tc "solve random system" `Quick test_lu_solve;
        tc "determinants" `Quick test_lu_det_identity;
        tc "singular detection" `Quick test_lu_singular;
        tc "explicit inverse" `Quick test_lu_inverse;
      ] );
    ( "la.qr",
      [
        tc "reconstruction and orthogonality" `Quick test_qr_reconstruct;
        tc "least squares" `Quick test_qr_least_squares;
        tc "deflation of dependent vectors" `Quick test_orthonormalize_dedup;
        tc "orthonormal output" `Quick test_orthonormalize_orthogonality;
        tc "numerical rank" `Quick test_qr_rank;
      ] );
    ( "la.kron",
      [
        tc "vector product" `Quick test_kron_vec;
        tc "mixed product property" `Quick test_kron_mixed_product;
        tc "structured mat_mul_vec" `Quick test_kron_mat_mul_vec;
        tc "structured sum_mul_vec" `Quick test_kron_sum_structured;
        tc "exp of Kronecker sum" `Quick test_kron_sum_exp_identity;
        tc "sym2" `Quick test_kron_sym2;
      ] );
    ( "la.expm",
      [
        tc "diagonal" `Quick test_expm_diag;
        tc "inverse property" `Quick test_expm_inverse_property;
        tc "rotation generator" `Quick test_expm_rotation;
        tc "large norm scaling" `Quick test_expm_large_norm;
      ] );
    ( "la.complex",
      [
        tc "cvec dot" `Quick test_cvec_dot;
        tc "cvec kron" `Quick test_cvec_kron;
        tc "cmat adjoint action" `Quick test_cmat_mul_adjoint;
        tc "complex LU" `Quick test_clu_solve;
        tc "shifted resolvent solve" `Quick test_clu_solve_shifted;
      ] );
    ( "la.schur",
      [
        tc "residual and unitarity" `Quick test_schur_residual;
        tc "triangular form" `Quick test_schur_triangular;
        tc "2x2 imaginary eigenvalues" `Quick test_schur_eigenvalues_2x2;
        tc "eigenvalue sum = trace" `Quick test_schur_eigenvalues_sum_trace;
        tc "defective matrix" `Quick test_schur_defective;
      ] );
    ( "la.ksolve",
      [
        tc "k=1" `Quick test_ksolve_k1;
        tc "k=2 vs dense" `Quick test_ksolve_k2_vs_dense;
        tc "k=3 vs dense" `Quick test_ksolve_k3_vs_dense;
        tc "complex shift" `Quick test_ksolve_complex_shift;
        tc "mode multiplies" `Quick test_ksolve_mode_mul;
        tc "theorem 1 resolvent" `Quick test_ksolve_theorem1;
      ] );
    ( "la.sylvester",
      [
        tc "generic Bartels-Stewart" `Quick test_sylvester_generic;
        tc "paper eq.18 Pi equation" `Quick test_sylvester_pi;
      ] );
    ( "la.sptensor",
      [
        tc "apply kron and flat" `Quick test_sptensor_apply;
        tc "dense roundtrip" `Quick test_sptensor_dense_roundtrip;
        tc "jacobian vs finite differences" `Quick test_sptensor_jacobian;
        tc "projection" `Quick test_sptensor_project;
        tc "symmetrize" `Quick test_sptensor_symmetrize;
      ] );
    ( "la.properties",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_lu_solve;
          qcheck_kron_bilinear;
          qcheck_schur_eig_residual;
          qcheck_orth_idempotent;
          qcheck_expm_commuting;
        ] );
  ]
