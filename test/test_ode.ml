(* Tests for the ODE integrators against closed-form and expm oracles. *)

open La

let rng = Random.State.make [| 777 |]

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

(* Scalar decay x' = -x. *)
let decay =
  {
    Ode.Types.dim = 1;
    rhs = (fun _ x -> Vec.of_list [ -.x.(0) ]);
    jac = Some (fun _ _ -> Mat.of_list [ [ -1.0 ] ]);
  }

(* Harmonic oscillator x'' = -x as a system. *)
let oscillator =
  {
    Ode.Types.dim = 2;
    rhs = (fun _ x -> Vec.of_list [ x.(1); -.x.(0) ]);
    jac = Some (fun _ _ -> Mat.of_list [ [ 0.; 1. ]; [ -1.; 0. ] ]);
  }

(* Linear system x' = A x (+ 0 input) with expm oracle. *)
let linear_system a =
  {
    Ode.Types.dim = Mat.rows a;
    rhs = (fun _ x -> Mat.mul_vec a x);
    jac = Some (fun _ _ -> a);
  }

let test_rk4_decay () =
  let sol =
    Ode.Rk4.integrate decay ~t0:0.0 ~t1:2.0 ~x0:(Vec.of_list [ 1.0 ]) ~h:0.01
      ~samples:21
  in
  Array.iteri
    (fun i t ->
      check_small "decay value"
        (Float.abs (sol.Ode.Types.states.(i).(0) -. Float.exp (-.t)))
        1e-8)
    sol.Ode.Types.times

let test_rk4_oscillator_energy () =
  let sol =
    Ode.Rk4.integrate oscillator ~t0:0.0 ~t1:(4.0 *. Float.pi)
      ~x0:(Vec.of_list [ 1.0; 0.0 ]) ~h:0.005 ~samples:50
  in
  Array.iter
    (fun x ->
      let energy = (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) in
      check_small "energy conserved" (Float.abs (energy -. 1.0)) 1e-8)
    sol.Ode.Types.states

let test_rk4_order () =
  (* halving h must reduce the error by ~2^4 *)
  let err h =
    let sol =
      Ode.Rk4.integrate decay ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ]) ~h
        ~samples:2
    in
    Float.abs (sol.Ode.Types.states.(1).(0) -. Float.exp (-1.0))
  in
  let e1 = err 0.1 and e2 = err 0.05 in
  let order = Float.log (e1 /. e2) /. Float.log 2.0 in
  Alcotest.(check bool)
    (Printf.sprintf "observed order %.2f in [3.5, 4.5]" order)
    true
    (order > 3.5 && order < 4.5)

let test_rkf45_linear_vs_expm () =
  let a = Mat.sub (Mat.scale 0.4 (Mat.random ~rng 6 6)) (Mat.scale 1.0 (Mat.identity 6)) in
  let x0 = Mat.random_vec ~rng 6 in
  let sol =
    Ode.Rkf45.integrate (linear_system a) ~t0:0.0 ~t1:2.0 ~x0 ~rtol:1e-9
      ~atol:1e-12 ~samples:5 ()
  in
  Array.iteri
    (fun i t ->
      let exact = Expm.expm_vec (Mat.scale t a) x0 in
      check_small "rkf45 vs expm"
        (Vec.dist2 sol.Ode.Types.states.(i) exact)
        1e-6)
    sol.Ode.Types.times

let test_rkf45_adapts () =
  (* stiff-ish decay forces rejections with a large initial step *)
  let stiff =
    {
      Ode.Types.dim = 1;
      rhs = (fun _ x -> Vec.of_list [ -200.0 *. x.(0) ]);
      jac = Some (fun _ _ -> Mat.of_list [ [ -200.0 ] ]);
    }
  in
  let sol =
    Ode.Rkf45.integrate stiff ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
      ~h0:0.5 ~samples:3 ()
  in
  check_small "stiff decay endpoint"
    (Float.abs sol.Ode.Types.states.(2).(0))
    1e-6;
  Alcotest.(check bool) "took multiple steps" true (sol.Ode.Types.stats.steps > 20)

let test_imtrap_decay () =
  let sol =
    Ode.Imtrap.integrate decay ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
      ~h:0.001 ~samples:3 ()
  in
  check_small "imtrap decay"
    (Float.abs (sol.Ode.Types.states.(2).(0) -. Float.exp (-1.0)))
    1e-6

let test_imtrap_stiff_stability () =
  (* very stiff linear problem: explicit RK4 at this step would blow up,
     the trapezoidal rule stays bounded and accurate. *)
  let stiff =
    {
      Ode.Types.dim = 1;
      rhs = (fun _ x -> Vec.of_list [ -1e4 *. x.(0) ]);
      jac = Some (fun _ _ -> Mat.of_list [ [ -1e4 ] ]);
    }
  in
  let sol =
    Ode.Imtrap.integrate stiff ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
      ~h:0.01 ~samples:3 ()
  in
  (* A-stability bounds the iterates; the trapezoidal rule is not
     L-stable, so at h*lambda = -100 the decay is only (49/51)^N per
     step — accept the well-known slow ringing but demand decay. *)
  check_small "stiff endpoint decays"
    (Float.abs sol.Ode.Types.states.(2).(0))
    0.05;
  check_small "stiff midpoint bounded"
    (Float.abs sol.Ode.Types.states.(1).(0))
    1.0;
  (* forced relaxation onto the slow manifold x = cos t, at a step
     10^4 times the fast time constant: the iterates track cos t *)
  let forced =
    {
      Ode.Types.dim = 1;
      rhs = (fun t x -> Vec.of_list [ -1e6 *. (x.(0) -. Float.cos t) ]);
      jac = Some (fun _ _ -> Mat.of_list [ [ -1e6 ] ]);
    }
  in
  let sol =
    Ode.Imtrap.integrate forced ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
      ~h:0.01 ~samples:11 ()
  in
  Alcotest.(check bool) "forced states finite" true
    (Array.for_all Vec.is_finite sol.Ode.Types.states);
  check_small "forced tracks the slow manifold"
    (Float.abs (sol.Ode.Types.states.(10).(0) -. Float.cos 1.0))
    1e-2

let test_imtrap_nonlinear () =
  (* logistic x' = x (1 - x), x(0)=0.1: x(t) = 1/(1 + 9 e^-t) *)
  let logistic =
    {
      Ode.Types.dim = 1;
      rhs = (fun _ x -> Vec.of_list [ x.(0) *. (1.0 -. x.(0)) ]);
      jac = Some (fun _ x -> Mat.of_list [ [ 1.0 -. (2.0 *. x.(0)) ] ]);
    }
  in
  let sol =
    Ode.Imtrap.integrate logistic ~t0:0.0 ~t1:5.0 ~x0:(Vec.of_list [ 0.1 ])
      ~h:0.001 ~samples:6 ()
  in
  Array.iteri
    (fun i t ->
      let exact = 1.0 /. (1.0 +. (9.0 *. Float.exp (-.t))) in
      check_small "logistic" (Float.abs (sol.Ode.Types.states.(i).(0) -. exact)) 1e-5)
    sol.Ode.Types.times

(* h = 0.02 on the 101-sample grid over [0, 2]: each step is shortened
   to land on its sample and so differs from h by rounding only. The
   factor built on the first step serves the whole run, and the states
   keep the trapezoid rule's accuracy (its exact recurrence is 1.5e-4
   from expm here). *)
let test_imtrap_reuses_factor () =
  let a = Mat.of_list [ [ -1.0; 2.0 ]; [ -2.0; -1.0 ] ] and x0 = Vec.of_list [ 1.0; 0.5 ] in
  let sol = Ode.Imtrap.integrate (linear_system a) ~t0:0.0 ~t1:2.0 ~x0 ~h:0.02 ~samples:101 () in
  Alcotest.(check int) "one Jacobian per run" 1 sol.Ode.Types.stats.jac_evals;
  Alcotest.(check int) "one step per sample" 100 sol.Ode.Types.stats.steps;
  Array.iteri
    (fun i t ->
      check_small "trapezoid vs expm"
        (Vec.dist2 sol.Ode.Types.states.(i) (Expm.expm_vec (Mat.scale t a) x0))
        3e-4)
    sol.Ode.Types.times

let test_imtrap_requires_jacobian () =
  let nojac = { decay with Ode.Types.jac = None } in
  Alcotest.check_raises "missing jacobian"
    (Invalid_argument "Imtrap.integrate: system has no Jacobian") (fun () ->
      ignore
        (Ode.Imtrap.integrate nojac ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
           ~h:0.1 ~samples:2 ()))

let test_sample_grid () =
  let ts = Ode.Types.sample_times ~t0:1.0 ~t1:3.0 ~samples:5 in
  Alcotest.(check int) "count" 5 (Array.length ts);
  check_small "first" (Float.abs (ts.(0) -. 1.0)) 1e-15;
  check_small "last" (Float.abs (ts.(4) -. 3.0)) 1e-15;
  check_small "mid" (Float.abs (ts.(2) -. 2.0)) 1e-15

let test_solution_outputs () =
  let sol =
    Ode.Rk4.integrate oscillator ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 2.0; 0.0 ])
      ~h:0.01 ~samples:3
  in
  let comp = Ode.Types.output_component sol ~index:0 in
  check_small "component extraction" (Float.abs (comp.(0) -. 2.0)) 1e-15;
  let dotted = Ode.Types.output_dot sol ~c:(Vec.of_list [ 0.5; 0.0 ]) in
  check_small "dotted output" (Float.abs (dotted.(0) -. 1.0)) 1e-15

let qcheck_rk4_linear_exact =
  QCheck2.Test.make ~name:"rk4 matches expm on random stable linear systems"
    ~count:15
    QCheck2.Gen.(array_size (return 16) (float_bound_inclusive 1.0))
    (fun data ->
      let a =
        Mat.sub
          (Mat.init 4 4 (fun i j -> 0.4 *. (data.((i * 4) + j) -. 0.5)))
          (Mat.identity 4)
      in
      let x0 = Vec.of_list [ 1.0; -1.0; 0.5; 0.2 ] in
      let sol =
        Ode.Rk4.integrate (linear_system a) ~t0:0.0 ~t1:1.0 ~x0 ~h:0.002
          ~samples:2
      in
      let exact = Expm.expm_vec a x0 in
      Vec.dist2 sol.Ode.Types.states.(1) exact < 1e-7)

let qcheck_integrators_agree =
  QCheck2.Test.make
    ~name:"rk4, rkf45 and imtrap agree on a nonlinear scalar ODE" ~count:15
    QCheck2.Gen.(float_bound_inclusive 0.8)
    (fun x0v ->
      let sys =
        {
          Ode.Types.dim = 1;
          rhs = (fun _ x -> Vec.of_list [ -.x.(0) -. (0.3 *. x.(0) *. x.(0)) ]);
          jac = Some (fun _ x -> Mat.of_list [ [ -1.0 -. (0.6 *. x.(0)) ] ]);
        }
      in
      let x0 = Vec.of_list [ x0v ] in
      let s1 = Ode.Rk4.integrate sys ~t0:0.0 ~t1:2.0 ~x0 ~h:0.005 ~samples:2 in
      let s2 = Ode.Rkf45.integrate sys ~t0:0.0 ~t1:2.0 ~x0 ~rtol:1e-9 ~samples:2 () in
      let s3 = Ode.Imtrap.integrate sys ~t0:0.0 ~t1:2.0 ~x0 ~h:0.002 ~samples:2 () in
      let a = s1.Ode.Types.states.(1).(0)
      and b = s2.Ode.Types.states.(1).(0)
      and c = s3.Ode.Types.states.(1).(0) in
      Float.abs (a -. b) < 1e-6 && Float.abs (a -. c) < 1e-5)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ode.rk4",
      [
        tc "exponential decay" `Quick test_rk4_decay;
        tc "oscillator energy" `Quick test_rk4_oscillator_energy;
        tc "fourth-order convergence" `Quick test_rk4_order;
      ] );
    ( "ode.rkf45",
      [
        tc "linear system vs expm" `Quick test_rkf45_linear_vs_expm;
        tc "adaptive stepping on stiff decay" `Quick test_rkf45_adapts;
      ] );
    ( "ode.imtrap",
      [
        tc "decay accuracy" `Quick test_imtrap_decay;
        tc "A-stability on stiff problem" `Quick test_imtrap_stiff_stability;
        tc "nonlinear logistic" `Quick test_imtrap_nonlinear;
        tc "missing jacobian rejected" `Quick test_imtrap_requires_jacobian;
        tc "factor reused across rounding-level step changes" `Quick test_imtrap_reuses_factor;
      ] );
    ( "ode.common",
      [
        tc "sample grid" `Quick test_sample_grid;
        tc "solution outputs" `Quick test_solution_outputs;
      ] );
    ( "ode.properties",
      List.map QCheck_alcotest.to_alcotest
        [ qcheck_rk4_linear_exact; qcheck_integrators_agree ] );
  ]
