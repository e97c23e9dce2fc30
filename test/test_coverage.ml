(* Additional coverage of API surface not exercised elsewhere: solver
   statistics, diagnostics, facade behavior, MISO transfer symmetries,
   and assorted edge cases. *)

open La

let rng = Random.State.make [| 90210 |]

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let check_float name expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.6g, got %.6g)" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

let random_stable n =
  let a = Mat.random ~rng n n in
  Mat.sub (Mat.scale 0.4 a) (Mat.scale 1.5 (Mat.identity n))

(* ---- La odds and ends ---- *)

let test_mat_norms_concrete () =
  let a = Mat.of_list [ [ 1.0; -2.0 ]; [ 3.0; 4.0 ] ] in
  check_float "norm_inf (max row sum)" 7.0 (Mat.norm_inf a) 1e-15;
  check_float "norm1 (max col sum)" 6.0 (Mat.norm1 a) 1e-15;
  check_float "max_abs" 4.0 (Mat.max_abs a) 1e-15;
  check_float "trace" 5.0 (Mat.trace a) 1e-15;
  check_float "norm_fro" (sqrt 30.0) (Mat.norm_fro a) 1e-12

let test_mat_diag_roundtrip () =
  let v = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  let d = Mat.diag v in
  Alcotest.(check bool) "diagonal roundtrip" true
    (Vec.approx_equal v (Mat.diagonal d));
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric d)

let test_mat_outer () =
  let u = Vec.of_list [ 1.0; 2.0 ] and v = Vec.of_list [ 3.0; 4.0; 5.0 ] in
  let o = Mat.outer u v in
  check_float "outer entry" 10.0 (Mat.get o 1 2) 1e-15;
  Alcotest.(check (pair int int)) "outer dims" (2, 3) (Mat.dims o)

let test_lu_rcond () =
  let well = Mat.identity 5 in
  let r1 = Lu.rcond_estimate well in
  check_float "rcond of I" 1.0 r1 1e-12;
  let ill =
    Mat.of_list [ [ 1.0; 1.0 ]; [ 1.0; 1.0 +. 1e-10 ] ]
  in
  Alcotest.(check bool) "ill-conditioned detected" true
    (Lu.rcond_estimate ill < 1e-8)

let test_ksolve_pole_distance () =
  let a = Mat.diag (Vec.of_list [ -1.0; -2.0; -4.0 ]) in
  let ks = Ksolve.prepare a in
  (* k=1: distance from 0 to nearest eigenvalue = 1 *)
  check_float "k=1 distance" 1.0
    (Ksolve.min_pole_distance ks ~k:1 ~sigma:Complex.zero)
    1e-9;
  (* k=2: nearest pair sum to 0 is -2 *)
  check_float "k=2 distance" 2.0
    (Ksolve.min_pole_distance ks ~k:2 ~sigma:Complex.zero)
    1e-9

let test_cvec_to_real_guard () =
  let v = Cvec.init 3 (fun _ -> { Complex.re = 1.0; im = 0.5 }) in
  Alcotest.(check bool) "imaginary residue rejected" true
    (try
       ignore (Cvec.to_real v);
       false
     with Robust.Error.Error (Robust.Error.Contract_violation _) -> true)

let test_schur_complex_input () =
  let a =
    Cmat.init 4 4 (fun i j ->
        {
          Complex.re = (if i = j then -2.0 else 0.2 *. float_of_int ((i + j) mod 3));
          im = 0.1 *. float_of_int (i - j);
        })
  in
  let s = Schur.decompose_complex a in
  let recon = Schur.reconstruct s in
  check_small "complex input residual"
    (Cmat.norm_fro (Cmat.sub recon a) /. (1.0 +. Cmat.norm_fro a))
    1e-9

(* ---- Ode statistics ---- *)

let test_rkf45_stats () =
  let sys =
    {
      Ode.Types.dim = 1;
      rhs = (fun _ x -> Vec.of_list [ -.x.(0) ]);
      jac = None;
    }
  in
  let sol =
    Ode.Rkf45.integrate sys ~t0:0.0 ~t1:5.0 ~x0:(Vec.of_list [ 1.0 ]) ~samples:3 ()
  in
  let st = sol.Ode.Types.stats in
  Alcotest.(check bool) "steps recorded" true (st.Ode.Types.steps > 0);
  Alcotest.(check bool) "6 evals per attempt" true
    (st.Ode.Types.rhs_evals >= 6 * st.Ode.Types.steps)

let test_imtrap_stats () =
  let sys =
    {
      Ode.Types.dim = 1;
      rhs = (fun _ x -> Vec.of_list [ -.x.(0) ]);
      jac = Some (fun _ _ -> Mat.of_list [ [ -1.0 ] ]);
    }
  in
  let sol =
    Ode.Imtrap.integrate sys ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ]) ~h:0.1
      ~samples:2 ()
  in
  let st = sol.Ode.Types.stats in
  Alcotest.(check bool) "newton iterations recorded" true
    (st.Ode.Types.newton_iters >= st.Ode.Types.steps);
  Alcotest.(check bool) "jacobians recorded" true (st.Ode.Types.jac_evals > 0)

(* ---- MISO transfer symmetries ---- *)

let miso_qldae () =
  let n = 4 in
  let g1 = random_stable n in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n (Mat.scale 0.3 (Mat.random ~rng n (n * n)))
  in
  let b = Mat.random ~rng n 2 in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  Volterra.Qldae.make ~g2 ~g1 ~b ~c ()

let test_h2_joint_symmetry () =
  (* H2^{ab}(s1,s2) = H2^{ba}(s2,s1): jointly swapping inputs and
     frequencies is a symmetry of the symmetric transfer function *)
  let q = miso_qldae () in
  let tf = Volterra.Transfer.create q in
  let s1 = { Complex.re = 0.2; im = 1.1 } and s2 = { Complex.re = -0.1; im = 0.6 } in
  let a = Volterra.Transfer.h2 tf ~inputs:(0, 1) s1 s2 in
  let b = Volterra.Transfer.h2 tf ~inputs:(1, 0) s2 s1 in
  check_small "joint swap symmetry" (Cvec.dist a b) 1e-10

let test_h2_assoc_pair_symmetry () =
  let q = miso_qldae () in
  let eng = Volterra.Assoc.create ~s0:0.5 q in
  let s = { Complex.re = 0.3; im = 0.7 } in
  let a = Volterra.Assoc.h2_eval eng ~inputs:(0, 1) s in
  let b = Volterra.Assoc.h2_eval eng ~inputs:(1, 0) s in
  check_small "associated pair symmetry" (Cvec.dist a b) 1e-10

(* ---- Distortion waveform reconstruction ---- *)

let test_distortion_waveform_periodicity () =
  let q = miso_qldae () in
  let comps =
    Volterra.Distortion.analyze q
      ~tones:[ Volterra.Distortion.tone ~freq:0.25 0.2 ]
  in
  (* all frequencies are harmonics of 0.25: the waveform has period 4 *)
  let w0 = Volterra.Distortion.waveform comps 0.3 in
  let w1 = Volterra.Distortion.waveform comps 4.3 in
  check_float "periodic reconstruction" w0 w1 1e-10

let test_distortion_max_order_flag () =
  let q = miso_qldae () in
  let tones = [ Volterra.Distortion.tone ~freq:0.2 0.3 ] in
  let first = Volterra.Distortion.analyze ~max_order:1 q ~tones in
  Alcotest.(check bool) "order-1 only" true
    (List.for_all (fun c -> c.Volterra.Distortion.order = 1) first);
  let third = Volterra.Distortion.analyze ~max_order:3 q ~tones in
  Alcotest.(check bool) "third order present" true
    (List.exists (fun c -> c.Volterra.Distortion.order = 3) third)

(* ---- facade ---- *)

let test_vmor_facade_roundtrip () =
  let model = Vmor.Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) () in
  let q = Vmor.Circuit.Models.qldae model in
  let r = Vmor.reduce ~orders:{ k1 = 6; k2 = 3; k3 = 0 } q in
  Alcotest.(check bool) "order positive" true (Vmor.order r > 0);
  let input =
    Vmor.Waves.Source.vectorize
      [ Vmor.Waves.Source.damped_sine ~freq:0.125 ~decay:0.1 0.5 ]
  in
  let c = Vmor.compare_transient ~samples:31 q r ~input ~t1:15.0 in
  check_small "facade comparison error" c.Vmor.max_rel_error 0.05;
  let plot = Vmor.plot_comparison c in
  Alcotest.(check bool) "plot renders" true (String.length plot > 100)

let test_vmor_norm_method () =
  let model = Vmor.Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) () in
  let q = Vmor.Circuit.Models.qldae model in
  let at =
    Vmor.reduce
      ~options:(Vmor.Options.make ~method_:Vmor.Associated_transform ())
      ~orders:{ k1 = 4; k2 = 2; k3 = 0 } q
  in
  let nr =
    Vmor.reduce
      ~options:(Vmor.Options.make ~method_:Vmor.Norm_baseline ())
      ~orders:{ k1 = 4; k2 = 2; k3 = 0 } q
  in
  Alcotest.(check bool) "NORM at least as large" true (Vmor.order nr >= Vmor.order at)

(* ---- Sptensor edges ---- *)

(* The Sptensor terms compiled onto monomials, applied at [x]. *)
let polymap_apply terms x =
  let p = Polymap.compile terms in
  let out = Vec.create (Array.length x) in
  Polymap.apply_add p ~scratch:(Polymap.scratch p) x out;
  out

let test_sptensor_accumulate_duplicates () =
  let t =
    Sptensor.create ~n_out:2 ~n_in:2 ~arity:2
      [ (0, [| 1; 1 |], 2.0); (0, [| 1; 1 |], 3.0) ]
  in
  let x = Vec.of_list [ 0.0; 1.0 ] in
  check_float "duplicates accumulate" 5.0 (Sptensor.apply_kron t [| x; x |]).(0) 1e-12;
  check_float "compiled duplicates accumulate" 5.0 (polymap_apply [ t ] x).(0) 1e-12;
  Alcotest.(check int) "folded to one coefficient" 1 (Polymap.nnz (Polymap.compile [ t ]))

let test_sptensor_scale_add () =
  let a = Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (0, [| 0; 1 |], 1.0) ] in
  let b = Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (1, [| 1; 0 |], 2.0) ] in
  let s = Sptensor.add (Sptensor.scale 3.0 a) b in
  let x = Vec.of_list [ 1.0; 1.0 ] in
  let y = polymap_apply [ s ] x in
  check_float "scaled" 3.0 y.(0) 1e-12;
  check_float "added" 2.0 y.(1) 1e-12;
  Alcotest.(check int) "nnz" 2 (Sptensor.nnz s);
  (* opposite coefficients on one monomial cancel and are dropped *)
  let c = Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (1, [| 0; 1 |], -2.0) ] in
  let p = Polymap.compile [ b; c ] in
  Alcotest.(check int) "cancelled" 0 (Polymap.nnz p);
  Alcotest.(check int) "no monomials left" 0 (Polymap.n_monomials p)

(* ---- waves odds ---- *)

let test_two_tone_content () =
  let s = Waves.Source.two_tone ~f1:0.1 ~f2:0.25 1.0 0.5 in
  (* value at t=0 is 0 (both sines) *)
  check_float "starts at zero" 0.0 (s 0.0) 1e-12;
  Alcotest.(check bool) "bounded" true (Float.abs (s 1.234) <= 1.5)

let test_output_component_and_dot () =
  let q = miso_qldae () in
  let input t = Vec.of_list [ sin t; 0.0 ] in
  let sol = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1:2.0 ~samples:3 in
  let ys = Volterra.Qldae.outputs q sol in
  Alcotest.(check int) "one output row" 1 (Array.length ys);
  Alcotest.(check int) "sampled" 3 (Array.length ys.(0))

let suite =
  let tc = Alcotest.test_case in
  [
    ( "coverage.la",
      [
        tc "matrix norms" `Quick test_mat_norms_concrete;
        tc "diag roundtrip" `Quick test_mat_diag_roundtrip;
        tc "outer product" `Quick test_mat_outer;
        tc "rcond estimate" `Quick test_lu_rcond;
        tc "ksolve pole distance" `Quick test_ksolve_pole_distance;
        tc "cvec to_real guard" `Quick test_cvec_to_real_guard;
        tc "complex-input Schur" `Quick test_schur_complex_input;
      ] );
    ( "coverage.ode",
      [
        tc "rkf45 statistics" `Quick test_rkf45_stats;
        tc "imtrap statistics" `Quick test_imtrap_stats;
      ] );
    ( "coverage.volterra",
      [
        tc "H2 joint input/frequency symmetry" `Quick test_h2_joint_symmetry;
        tc "associated pair symmetry" `Quick test_h2_assoc_pair_symmetry;
        tc "distortion waveform periodicity" `Quick test_distortion_waveform_periodicity;
        tc "distortion max_order flag" `Quick test_distortion_max_order_flag;
        tc "multi-output sampling" `Quick test_output_component_and_dot;
      ] );
    ( "coverage.facade",
      [
        tc "reduce/compare/plot roundtrip" `Slow test_vmor_facade_roundtrip;
        tc "NORM method selector" `Quick test_vmor_norm_method;
      ] );
    ( "coverage.misc",
      [
        tc "sptensor duplicate accumulation" `Quick test_sptensor_accumulate_duplicates;
        tc "sptensor scale/add" `Quick test_sptensor_scale_add;
        tc "two-tone source" `Quick test_two_tone_content;
      ] );
  ]
