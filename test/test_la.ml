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

let test_resolvent_solve () =
  let a = random_stable 6 in
  let sigma = { Complex.re = 0.5; im = 2.0 } in
  let b = Cvec.of_real (Mat.random_vec ~rng 6) in
  let x = Ksolve.solve_shifted (Ksolve.prepare a) ~k:1 ~sigma b in
  (* residual: (sigma I - A) x - b *)
  let ax = Cmat.mul_vec (Cmat.of_real a) x in
  let r = Cvec.sub (Cvec.sub (Cvec.scale sigma x) ax) b in
  check_small "shifted solve residual" (Cvec.norm2 r) 1e-9

(* ---------- Schur ---------- *)

let test_schur_residual () =
  let a = random_stable 15 in
  let s = Schur.decompose a in
  check_small "Schur residual" (Schur.residual ~a s) 1e-9;
  let u, _ = Schur.real_factors s in
  check_small "U orthogonal"
    (Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose u) u) (Mat.identity 15)))
    1e-9

(* Quasi-triangular factors of a spectrum with complex pairs: A = U T Uᵀ
   with U orthogonal, one standardized 2x2 block [a b; c a], b c < 0,
   per pair and nothing else below the diagonal, and the block list read
   off T. *)
let check_quasi_triangular name a (u, t) blocks =
  let n = Mat.rows a in
  check_small (name ^ ": UᵀU = I")
    (Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose u) u) (Mat.identity n)))
    1e-12;
  check_small (name ^ ": ‖A − UTUᵀ‖/‖A‖")
    (Mat.norm_fro (Mat.sub a (Mat.mul u (Mat.mul t (Mat.transpose u))))
    /. Mat.norm_fro a)
    1e-12;
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      let x = Mat.get t i j in
      if Contract.nonzero x then begin
        if j <> i - 1 || (i >= 2 && Contract.nonzero (Mat.get t (i - 1) (i - 2))) then
          Alcotest.failf "%s: T(%d,%d) outside a 2x2 block" name i j;
        incr pairs;
        if Mat.get t j j <> Mat.get t i i || Mat.get t j i *. x >= 0.0 then
          Alcotest.failf "%s: block at %d not a standard complex pair" name j
      end
    done
  done;
  Alcotest.(check bool) (name ^ ": has a complex pair") true (!pairs > 0);
  let expected =
    let rec go i acc =
      if i >= n then List.rev acc
      else if i + 1 < n && Contract.nonzero (Mat.get t (i + 1) i) then
        go (i + 2) ((i, i + 2) :: acc)
      else go (i + 1) ((i, i + 1) :: acc)
    in
    go 0 []
  in
  Alcotest.(check (list (pair int int))) (name ^ ": diagonal blocks") expected
    (Array.to_list blocks)

let pair_matrices () =
  [
    ("random", random_stable 12);
    ("rotation block", Mat.of_list [ [ -1.0; -3.0; 0.5 ]; [ 2.0; -1.0; 0.0 ]; [ 0.1; 0.0; -4.0 ] ]);
  ]

let test_schur_triangular () =
  List.iter
    (fun (name, a) ->
      let s = Schur.decompose a in
      check_quasi_triangular name a (Schur.real_factors s) (Schur.blocks s))
    (pair_matrices ())

(* The transposed factors are a Schur form of Aᵀ, with the blocks and
   the eigenvalues reversed and each pair's positive imaginary part
   first, at no Schur charge. *)
let test_schur_transpose () =
  List.iter
    (fun (name, a) ->
      let s = Schur.decompose a in
      let snap = Obs.Cost.snapshot () in
      let st = Schur.transpose s in
      Alcotest.(check int) (name ^ ": no Schur charge") 0
        (Option.value ~default:0
           (List.assoc_opt Obs.Cost.Flops_schur (Obs.Cost.since snap)));
      let at = Mat.transpose a in
      check_quasi_triangular (name ^ " transposed") at (Schur.real_factors st)
        (Schur.blocks st);
      check_small (name ^ ": residual for Aᵀ") (Schur.residual ~a:at st) 1e-12;
      let e = Schur.eigenvalues s and et = Schur.eigenvalues st in
      let n = Array.length e in
      Array.iteri
        (fun i (z : Complex.t) ->
          let w = e.(n - 1 - i) in
          if z.re <> w.re || Float.abs z.im <> Float.abs w.im then
            Alcotest.failf "%s: eigenvalue %d not reversed" name i)
        et;
      Array.iter
        (fun (b, e') ->
          if e' = b + 2 && et.(b).im <= 0.0 then
            Alcotest.failf "%s: pair at %d has its negative part first" name b)
        (Schur.blocks st))
    (pair_matrices ())

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

(* U^⊗k x on the real Schur factors, by the real mode multiplies: the
   test oracle of the Schur-basis kernels *)
let from_schur_real ks ~k (x : Vec.t) =
  let u = Ksolve.real_unitary ks in
  List.fold_left
    (fun x m -> Ksolve.mode_mul_real ~n:(Mat.rows u) ~k ~m u x)
    x (List.init k Fun.id)

(* G1 = Q R Qᵀ with Q orthogonal and R upper triangular: a non-normal
   matrix whose spectrum is the diagonal of R, real. *)
let real_spectrum ?(rng = rng) (diag : float array) =
  let n = Array.length diag in
  let q =
    Mat.of_cols (Qr.orthonormalize (List.init n (fun _ -> Mat.random_vec ~rng n)))
  in
  let r =
    Mat.init n n (fun i j ->
        if i = j then diag.(i)
        else if j > i then 0.5 *. Random.State.float rng 2.0 -. 0.5
        else 0.0)
  in
  Mat.mul q (Mat.mul r (Mat.transpose q))

(* The real path: U orthogonal, A = U T Uᵀ to 1e-12·‖A‖ and T exactly
   upper triangular, on distinct, repeated and defective real spectra
   and at n = 1, 2. *)
let test_schur_real_form () =
  let check name a =
    let n = Mat.rows a in
    let u, t = Schur.real_factors (Schur.decompose a) in
    check_small (name ^ ": UᵀU = I")
      (Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose u) u) (Mat.identity n)))
      1e-12;
    check_small (name ^ ": ‖A − UTUᵀ‖/‖A‖")
      (Mat.norm_fro (Mat.sub a (Mat.mul u (Mat.mul t (Mat.transpose u))))
      /. Mat.norm_fro a)
      1e-12;
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        if Contract.nonzero (Mat.get t i j) then
          Alcotest.failf "%s: T(%d,%d) = %g below the diagonal" name i j
            (Mat.get t i j)
      done
    done
  in
  check "distinct" (real_spectrum (Array.init 12 (fun i -> -1.0 -. (0.37 *. float_of_int i))));
  (* a repeated semisimple eigenvalue: S D S⁻¹ (a defective one of
     multiplicity m splits by eps^(1/m), into complex pairs as often
     as not, and is left to test_schur_defective) *)
  let sm = Mat.add (Mat.identity 7) (Mat.scale 0.3 (Mat.random ~rng 7 7)) in
  check "repeated"
    (Mat.mul sm
       (Mat.mul (Mat.diag (Vec.of_list [ -1.0; -1.0; -2.0; -2.0; -2.0; -3.5; -1.0 ]))
          (Lu.inverse (Lu.factor sm))));
  let c = cos 0.7 and s = sin 0.7 in
  let rot = Mat.of_list [ [ c; -.s ]; [ s; c ] ] in
  check "2x2 Jordan block"
    (Mat.mul rot (Mat.mul (Mat.of_list [ [ 2.0; 1.0 ]; [ 0.0; 2.0 ] ]) (Mat.transpose rot)));
  check "n = 1" (Mat.of_list [ [ -3.0 ] ]);
  check "n = 2" (Mat.of_list [ [ 1.0; 2.0 ]; [ 0.5; -1.0 ] ]);
  check "n = 2, already triangular" (Mat.of_list [ [ 1.0; 2.0 ]; [ 0.0; -1.0 ] ])

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

(* ---------- Ksolve.tri_solve_sym3_real ---------- *)

(* Q R Qᵀ with R quasi-triangular: a standard 2x2 block [a b; c a],
   b c < 0, per pair (n/2 of them), a real eigenvalue last when n is
   odd, and a random upper part. *)
let with_pairs n =
  let q =
    Mat.of_cols (Qr.orthonormalize (List.init n (fun _ -> Mat.random_vec ~rng n)))
  in
  let r =
    Mat.init n n (fun i j ->
        if i = j then -0.6 -. (0.5 *. float_of_int (i / 2))
        else if j = i + 1 && i mod 2 = 0 then 1.0 +. (0.3 *. float_of_int (i / 2))
        else if i = j + 1 && j mod 2 = 0 then -0.8 -. (0.2 *. float_of_int (j / 2))
        else if j > i then 0.5 *. Random.State.float rng 2.0 -. 0.5
        else 0.0)
  in
  Mat.mul q (Mat.mul r (Mat.transpose q))

(* both kinds of real Schur factor: triangular (a real spectrum) and
   with 2x2 blocks (complex pairs, n >= 2) *)
let t_kinds n =
  ("triangular T", real_spectrum (Array.init n (fun i -> -0.5 -. (0.45 *. float_of_int i))))
  :: (if n >= 2 then [ ("T with blocks", with_pairs n) ] else [])

(* sym³(a, b, c) for random Schur-basis columns: the full n³ tensor,
   and its i <= j <= l part alone (zeros elsewhere), which is all the
   symmetric kernel reads. *)
let sym3_rhs n =
  let x = Array.init 3 (fun _ -> Mat.random_vec ~rng n) in
  let full = Vec.create (n * n * n) in
  List.iter
    (fun (i, j, l) ->
      Vec.axpy ~alpha:(1.0 /. 6.0) (Kron.vec (Kron.vec x.(i) x.(j)) x.(l)) full)
    [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (1, 2, 0); (2, 0, 1); (2, 1, 0) ];
  let upper = Vec.create (n * n * n) in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      for l = j to n - 1 do
        let at = (((i * n) + j) * n) + l in
        upper.(at) <- full.(at)
      done
    done
  done;
  (full, upper)

let rel_dist a b = Vec.dist2 a b /. Vec.norm2 b

(* (sigma I - ⊕^k T)⁻¹ w by a dense LU of the Schur factor's Kronecker
   sum: the independent oracle of the Schur-basis kernels *)
let dense_tri ks ~k ~sigma w =
  let _, t = Schur.real_factors (Ksolve.schur ks) in
  let big = Kron.sum_pow t k in
  Lu.solve_system (Mat.sub (Mat.scale sigma (Mat.identity (Mat.rows big))) big) w

let test_sym3_vs_full () =
  List.iter
    (fun n ->
      List.iter
        (fun (kind, a) ->
          let ks = Ksolve.prepare a in
          let full, upper = sym3_rhs n in
          List.iter
            (fun sigma ->
              let y_ref = dense_tri ks ~k:3 ~sigma full in
              let tag = Printf.sprintf "%s n=%d sigma=%g" kind n sigma in
              check_small (tag ^ " full rhs")
                (rel_dist (Ksolve.tri_solve_sym3_real ks ~sigma full) y_ref)
                1e-12;
              check_small (tag ^ " i<=j<=l rhs")
                (rel_dist (Ksolve.tri_solve_sym3_real ks ~sigma upper) y_ref)
                1e-12)
            [ 0.3; -1.1 ])
        (t_kinds n))
    [ 1; 2; 5; 7 ]

let test_sym3_permutation_symmetric () =
  let n = 6 in
  List.iter
    (fun (kind, a) ->
      let ks = Ksolve.prepare a in
      let _, upper = sym3_rhs n in
      let y = Ksolve.tri_solve_sym3_real ks ~sigma:0.5 upper in
      let at i j l = (((i * n) + j) * n) + l in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for l = 0 to n - 1 do
            let v = at i j l in
            List.iter
              (fun p ->
                if y.(p) <> y.(v) then
                  Alcotest.failf "%s: y(%d,%d,%d) differs from a permutation" kind i j l)
              [ at i l j; at j i l; at j l i; at l i j; at l j i ]
          done
        done
      done)
    (t_kinds n)

(* blockdiag([-1 2; -2 -1], -4) rotated: eigenvalues -1 ± 2i and -4 *)
let rotated_pair () =
  let c = cos 0.4 and s = sin 0.4 in
  let r = Mat.of_list [ [ c; -.s; 0.0 ]; [ s; c; 0.0 ]; [ 0.0; 0.0; 1.0 ] ] in
  Mat.mul r
    (Mat.mul (Mat.of_list [ [ -1.0; 2.0; 0.3 ]; [ -2.0; -1.0; 0.1 ]; [ 0.0; 0.0; -4.0 ] ])
       (Mat.transpose r))

let raises_near_singular f =
  match f () with _ -> false | exception Ksolve.Near_singular _ -> true

let test_sym3_pole () =
  (* diag(-1, -2, -4): sigma = -7 is the mixed sum of all three; on the
     pair's factor, -6 = (-1 + 2i) + (-1 - 2i) + (-4) *)
  List.iter
    (fun (kind, a, sigma) ->
      let ks = Ksolve.prepare a in
      let full, upper = sym3_rhs 3 in
      (* a pole makes the Tikhonov solution depend on how the unknowns
         are grouped, which differs between the two kernels only where
         2x2 blocks couple them *)
      if kind = "triangular T" then begin
        let mu = 1e-6 in
        check_small (kind ^ ": regularized solve matches the full one")
          (rel_dist
             (Ksolve.tri_solve_sym3_real ~mu ks ~sigma upper)
             (Ksolve.tri_solve_shifted_real ~mu ks ~k:3 ~sigma full))
          1e-12
      end;
      Alcotest.(check bool) (kind ^ ": unregularized solve raises Near_singular") true
        (raises_near_singular (fun () -> Ksolve.tri_solve_sym3_real ks ~sigma upper)))
    [
      ("triangular T", Mat.diag (Vec.of_list [ -1.0; -2.0; -4.0 ]), -7.0);
      ("T with blocks", rotated_pair (), -6.0);
    ]

let test_sym3_charge () =
  let n = 20 in
  List.iter
    (fun (kind, a) ->
      let ks = Ksolve.prepare a in
      let full, upper = sym3_rhs n in
      let trisolve f =
        let snap = Obs.Cost.snapshot () in
        ignore (Sys.opaque_identity (f ()));
        Option.value ~default:0
          (List.assoc_opt Obs.Cost.Flops_trisolve (Obs.Cost.since snap))
      in
      let sym = trisolve (fun () -> Ksolve.tri_solve_sym3_real ks ~sigma:0.3 upper) in
      let full =
        trisolve (fun () -> Ksolve.tri_solve_shifted_real ks ~k:3 ~sigma:0.3 full)
      in
      Alcotest.(check int) (kind ^ ": documented formula")
        (((n - 1) * n * (n + 1) * (n + 2) / 2) + (5 * n * (n + 1) * (n + 2) / 6))
        sym;
      Alcotest.(check int) (kind ^ ": full solve formula")
        ((3 * n * n * n * (n - 1)) + (5 * n * n * n))
        full;
      Alcotest.(check bool) (kind ^ ": at most a quarter of the full solve") true
        (4 * sym <= full))
    (t_kinds n)

(* ---------- complex shifts on the real factors ---------- *)

(* (sigma I - ⊕^k A)⁻¹ v by a dense complex LU: the oracle *)
let dense_complex a ~k ~(sigma : Complex.t) (v : Cvec.t) =
  let big = Cmat.of_real (Kron.sum_pow a k) in
  Clu.solve_system (Cmat.add_diag (Cmat.scale { re = -1.0; im = 0.0 } big) sigma) v

(* A complex shift runs on the real factors as a (re, im) tuple: the
   solves at k = 1, 2, 3 on a triangular T and on a T with 2x2 blocks
   against the dense complex operator, Near_singular on an eigenvalue
   sum (the real kernels too), and at mu > 0 each 1x1 tuple's Tikhonov
   solution conj(d) w / (|d|² + mu²). *)
let test_complex_shift_vs_dense () =
  let n = 5 in
  List.iter
    (fun (kind, a) ->
      let ks = Ksolve.prepare a in
      List.iter
        (fun k ->
          let len = int_of_float (float_of_int n ** float_of_int k) in
          let v = Cvec.make ~re:(Mat.random_vec ~rng len) ~im:(Mat.random_vec ~rng len) in
          List.iter
            (fun (sigma : Complex.t) ->
              let x_ref = dense_complex a ~k ~sigma v in
              check_small
                (Printf.sprintf "%s k=%d sigma=%g%+gi" kind k sigma.re sigma.im)
                (Cvec.norm2 (Cvec.sub (Ksolve.solve_shifted ks ~k ~sigma v) x_ref)
                /. Cvec.norm2 x_ref)
                1e-12)
            [
              { Complex.re = 0.3; im = 1.7 };
              { Complex.re = -1.2; im = -0.4 };
              { Complex.re = 0.5; im = 0.0 };
            ])
        [ 1; 2; 3 ])
    (t_kinds n);
  (* poles: diag(-1, -2, -4) at -2 (k = 1), -3 (k = 2), -7 (k = 3);
     the rotated pair -1 ± 2i, -4 at -1 + 2i, -5 - 2i, -6 + 4i *)
  List.iter
    (fun (kind, a, poles) ->
      let ks = Ksolve.prepare a in
      List.iter
        (fun (k, (sigma : Complex.t)) ->
          let w = Vec.init (int_of_float (3.0 ** float_of_int k)) (fun i -> float_of_int (i + 1)) in
          let tag = Printf.sprintf "%s pole k=%d sigma=%g%+gi" kind k sigma.re sigma.im in
          Alcotest.(check bool) (tag ^ ": complex raises") true
            (raises_near_singular (fun () -> Ksolve.solve_shifted ks ~k ~sigma (Cvec.of_real w)));
          if Contract.is_zero sigma.im then begin
            Alcotest.(check bool) (tag ^ ": tri_solve_shifted_real raises") true
              (raises_near_singular (fun () ->
                   Ksolve.tri_solve_shifted_real ks ~k ~sigma:sigma.re w));
            Alcotest.(check bool) (tag ^ ": solve_shifted_real raises") true
              (raises_near_singular (fun () -> Ksolve.solve_shifted_real ks ~k ~sigma:sigma.re w))
          end)
        poles)
    [
      ( "triangular T",
        Mat.diag (Vec.of_list [ -1.0; -2.0; -4.0 ]),
        [ (1, { Complex.re = -2.0; im = 0.0 }); (2, { re = -3.0; im = 0.0 }); (3, { re = -7.0; im = 0.0 }) ] );
      ( "T with blocks",
        rotated_pair (),
        [ (1, { Complex.re = -1.0; im = 2.0 }); (2, { re = -5.0; im = -2.0 }); (3, { re = -6.0; im = 4.0 }) ] );
    ];
  Alcotest.(check bool) "pole sym3: real raises" true
    (raises_near_singular (fun () ->
         Ksolve.tri_solve_sym3_real
           (Ksolve.prepare (Mat.diag (Vec.of_list [ -1.0; -2.0; -4.0 ])))
           ~sigma:(-7.0) (Vec.create 27)));
  (* diag(-1, -2, -4) factors with U = I and T = A, so every tuple is
     1x1: the Tikhonov inverse entry by entry, a pole included *)
  let lam = [| -1.0; -2.0; -4.0 |] in
  let ks = Ksolve.prepare (Mat.diag (Vec.of_array lam)) in
  List.iter
    (fun (k, (sigma : Complex.t)) ->
      let len = int_of_float (3.0 ** float_of_int k) in
      let v = Cvec.make ~re:(Mat.random_vec ~rng len) ~im:(Mat.random_vec ~rng len) in
      let mu = 0.5 in
      let x = Ksolve.solve_shifted ~mu ks ~k ~sigma v in
      let expected =
        Cvec.init len (fun idx ->
            let d = ref sigma and r = ref idx in
            for _ = 1 to k do
              d := Complex.sub !d { re = lam.(!r mod 3); im = 0.0 };
              r := !r / 3
            done;
            Complex.div
              (Complex.mul (Complex.conj !d) (Cvec.get v idx))
              { re = Complex.norm2 !d +. (mu *. mu); im = 0.0 })
      in
      check_small
        (Printf.sprintf "Tikhonov 1x1 tuples k=%d sigma=%g%+gi" k sigma.re sigma.im)
        (Cvec.norm2 (Cvec.sub x expected) /. Cvec.norm2 expected)
        1e-14)
    [ (1, { Complex.re = 0.3; im = 0.8 }); (2, { re = -3.0; im = 0.0 }); (3, { re = -6.5; im = -0.2 }) ]

(* The real shifted solves against the dense operator and against the
   complex shift's tuple path at a zero imaginary part, on a real
   spectrum (triangular T) and on complex pairs (2x2 blocks), also at
   mu > 0; the symmetric ⊕³ kernel through the Schur basis agrees with
   the k = 3 solve. *)
let test_real_solve_residual () =
  let n = 5 in
  List.iter
    (fun (name, a) ->
      let ks = Ksolve.prepare a in
      let u = Ksolve.real_unitary ks in
      List.iter
        (fun k ->
          let v = Mat.random_vec ~rng (int_of_float (float_of_int n ** float_of_int k)) in
          let x = Ksolve.solve_shifted_real ks ~k ~sigma:0.4 v in
          check_small (Printf.sprintf "%s k=%d residual" name k)
            (Vec.dist2 (Ksolve.apply_shifted ~g:a ~k ~sigma:0.4 x) v /. Vec.norm2 v)
            1e-12;
          List.iter
            (fun mu ->
              let xc =
                Ksolve.solve_shifted ~mu ks ~k ~sigma:{ Complex.re = 0.4; im = 0.0 }
                  (Cvec.of_real v)
              in
              check_small (Printf.sprintf "%s k=%d mu=%g real = complex" name k mu)
                (Vec.dist2 (Ksolve.solve_shifted_real ~mu ks ~k ~sigma:0.4 v)
                   (Cvec.real_part xc)
                /. Cvec.norm2 xc)
                1e-12)
            [ 0.0; 0.05 ])
        [ 1; 2; 3 ];
      (* a symmetric rhs: sym³ of three real vectors *)
      let b = Array.init 3 (fun _ -> Mat.random_vec ~rng n) in
      let q = Vec.create (n * n * n) in
      List.iter
        (fun (i, j, l) -> Vec.axpy ~alpha:(1.0 /. 6.0) (Kron.vec (Kron.vec b.(i) b.(j)) b.(l)) q)
        [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (1, 2, 0); (2, 0, 1); (2, 1, 0) ];
      let to_schur v =
        List.fold_left
          (fun w m -> Ksolve.mode_mul_real ~n ~k:3 ~m ~transpose:true u w)
          v [ 0; 1; 2 ]
      in
      check_small (name ^ " sym3 = k=3 solve")
        (Vec.dist2
           (from_schur_real ks ~k:3
              (Ksolve.tri_solve_sym3_real ks ~sigma:0.4 (to_schur q)))
           (Ksolve.solve_shifted_real ks ~k:3 ~sigma:0.4 q)
        /. Vec.norm2 q)
        1e-12)
    [
      ("real", real_spectrum (Array.init n (fun i -> -0.8 -. (0.6 *. float_of_int i))));
      ("pairs", random_stable n);
    ];
  (* the rotated pair: poles -2 (k = 2, the pair's real sum) and -6
     (k = 3) *)
  let ks = Ksolve.prepare (rotated_pair ()) in
  let raises = raises_near_singular in
  List.iter
    (fun (k, sigma) ->
      let v = Vec.init (int_of_float (3.0 ** float_of_int k)) (fun i -> float_of_int (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "block pole k=%d sigma=%g" k sigma) true
        (raises (fun () -> Ksolve.solve_shifted_real ks ~k ~sigma v));
      Alcotest.(check bool) (Printf.sprintf "block pole k=%d sigma=%g, complex" k sigma) true
        (raises (fun () ->
             Ksolve.solve_shifted ks ~k ~sigma:{ Complex.re = sigma; im = 0.0 } (Cvec.of_real v))))
    [ (2, -2.0); (3, -6.0) ];
  Alcotest.(check bool) "block pole sym3" true
    (raises (fun () -> Ksolve.tri_solve_sym3_real ks ~sigma:(-6.0) (Vec.create 27)))

(* ---------- Sylvester ---------- *)

let test_sylvester_pi () =
  let n = 5 in
  let g1 = random_stable n in
  let g2 = Mat.random ~rng n (n * n) in
  let pi = Sylvester.solve_pi_schur ~ks:(Ksolve.prepare g1) ~g2 in
  (* check G1 Pi + G2 = Pi (⊕² G1) *)
  let lhs = Mat.add (Mat.mul g1 pi) g2 in
  let rhs = Mat.mul pi (Kron.sum_pow g1 2) in
  check_small "paper eq.18 Sylvester" (Mat.norm_fro (Mat.sub lhs rhs)) 1e-7

(* On a G1 with complex pairs (2x2 blocks of T, column tuples of up to
   four columns) at n = 4: Π against the dense vectorized solve
   (G1 ⊗ I ⊗ I − I ⊗ ⊕²G1ᵀ) vec Π = −vec G2 (row-major vec), and the
   eq.-18 residual. *)
let test_sylvester_pairs_vs_dense () =
  let n = 4 in
  let g1 = with_pairs n in
  let ks = Ksolve.prepare g1 in
  Alcotest.(check (list (pair int int))) "two 2x2 blocks" [ (0, 2); (2, 4) ]
    (Array.to_list (Schur.blocks (Ksolve.schur ks)));
  let g2 = Mat.random ~rng n (n * n) in
  let pi = Sylvester.solve_pi_schur ~ks ~g2 in
  let big =
    Mat.sub
      (Kron.mat g1 (Mat.identity (n * n)))
      (Kron.mat (Mat.identity n) (Kron.sum_pow (Mat.transpose g1) 2))
  in
  let pi_ref = Lu.solve_system big (Vec.scale (-1.0) (Mat.data g2)) in
  check_small "Π vs dense"
    (Vec.dist2 (Mat.data pi) pi_ref /. Vec.norm2 pi_ref)
    1e-12;
  let lhs = Mat.add (Mat.mul g1 pi) g2 in
  let rhs = Mat.mul pi (Kron.sum_pow g1 2) in
  check_small "eq.18 residual"
    (Mat.norm_fro (Mat.sub lhs rhs) /. Mat.norm_fro g2)
    1e-12

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

(* The sorted-tuple projection of a symmetric G2 and G3 against the
   dense Wᵀ·to_dense(G)·(V⊗V[⊗V]), with a test basis W distinct from V,
   and its exact symmetry: every column tuple holds the same bits as
   each of its permutations. *)
let test_sptensor_project () =
  let n = 5 and q = 3 in
  let v = Qr.orth_mat (List.init q (fun _ -> Mat.random_vec ~rng n)) in
  let w = Mat.random ~rng n q in
  let rec pow b k = if k = 0 then 1 else b * pow b (k - 1) in
  (* the index tuples that are permutations of column c's (with
     multiplicity), as flat columns *)
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l
  in
  let permuted ~arity c =
    let digit m = c / pow q (arity - 1 - m) mod q in
    List.map
      (List.fold_left (fun f m -> (f * q) + digit m) 0)
      (perms (List.init arity Fun.id))
  in
  List.iter
    (fun arity ->
      let t =
        Sptensor.symmetrize
          (Sptensor.of_dense ~arity ~n_in:n (Mat.random ~rng n (pow n arity)))
      in
      let d = Sptensor.to_dense (Sptensor.project ~w t v) in
      let vk = if arity = 2 then Kron.mat v v else Kron.mat v (Kron.mat v v) in
      let reference = Mat.mul (Mat.transpose w) (Mat.mul (Sptensor.to_dense t) vk) in
      check_small
        (Printf.sprintf "arity %d: projection" arity)
        (Mat.norm_fro (Mat.sub d reference) /. Mat.norm_fro reference)
        1e-13;
      Alcotest.(check bool)
        (Printf.sprintf "arity %d: exactly symmetric" arity)
        true
        (List.for_all
           (fun r ->
             List.for_all
               (fun c ->
                 List.for_all
                   (fun c' -> Float.equal (Mat.get d r c) (Mat.get d r c'))
                   (permuted ~arity c))
               (List.init (pow q arity) Fun.id))
           (List.init q Fun.id)))
    [ 2; 3 ]

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
        tc "shifted resolvent solve" `Quick test_resolvent_solve;
      ] );
    ( "la.schur",
      [
        tc "residual and unitarity" `Quick test_schur_residual;
        tc "triangular form" `Quick test_schur_triangular;
        tc "2x2 imaginary eigenvalues" `Quick test_schur_eigenvalues_2x2;
        tc "eigenvalue sum = trace" `Quick test_schur_eigenvalues_sum_trace;
        tc "defective matrix" `Quick test_schur_defective;
        tc "real Schur form on real spectra" `Quick test_schur_real_form;
        tc "transposed factors factor Aᵀ" `Quick test_schur_transpose;
      ] );
    ( "la.ksolve",
      [
        tc "k=1" `Quick test_ksolve_k1;
        tc "k=2 vs dense" `Quick test_ksolve_k2_vs_dense;
        tc "k=3 vs dense" `Quick test_ksolve_k3_vs_dense;
        tc "complex shift" `Quick test_ksolve_complex_shift;
        tc "mode multiplies" `Quick test_ksolve_mode_mul;
        tc "theorem 1 resolvent" `Quick test_ksolve_theorem1;
        tc "sym3 solve matches the full k=3 solve" `Quick test_sym3_vs_full;
        tc "sym3 solve is permutation-symmetric" `Quick
          test_sym3_permutation_symmetric;
        tc "sym3 solve on an exact pole" `Quick test_sym3_pole;
        tc "sym3 solve cost charge" `Quick test_sym3_charge;
        tc "complex shifts vs dense" `Quick test_complex_shift_vs_dense;
        tc "real shifted solves vs dense" `Quick test_real_solve_residual;
      ] );
    ( "la.sylvester",
      [
        tc "paper eq.18 Pi equation" `Quick test_sylvester_pi;
        tc "eq.18 on complex pairs vs dense" `Quick test_sylvester_pairs_vs_dense;
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
