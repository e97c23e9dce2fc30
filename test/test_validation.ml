(* Failure-injection tests: every layer must reject malformed input with
   a meaningful exception instead of silently producing nonsense. *)

open La

let expect_invalid name f =
  Alcotest.(check bool) name true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_netlist_validation () =
  expect_invalid "node out of range" (fun () ->
      Circuit.Netlist.make ~n_nodes:2 ~n_inputs:1 ~output_node:1
        [ Circuit.Netlist.Resistor { n1 = 1; n2 = 5; r = 1.0 } ]);
  expect_invalid "negative resistance" (fun () ->
      Circuit.Netlist.make ~n_nodes:1 ~n_inputs:1 ~output_node:1
        [ Circuit.Netlist.Resistor { n1 = 1; n2 = 0; r = -1.0 } ]);
  expect_invalid "bad input index" (fun () ->
      Circuit.Netlist.make ~n_nodes:1 ~n_inputs:1 ~output_node:1
        [ Circuit.Netlist.Current_source { n1 = 1; n2 = 0; input = 3; gain = 1.0 } ]);
  expect_invalid "ground output" (fun () ->
      Circuit.Netlist.make ~n_nodes:1 ~n_inputs:1 ~output_node:0
        [ Circuit.Netlist.Capacitor { n1 = 1; n2 = 0; c = 1.0 } ])

let test_singular_mass_matrix () =
  (* a node with no capacitive path: E singular, solvers must refuse *)
  let nl =
    Circuit.Netlist.make ~n_nodes:2 ~n_inputs:1 ~output_node:2
      Circuit.Netlist.
        [
          Capacitor { n1 = 1; n2 = 0; c = 1.0 };
          Resistor { n1 = 1; n2 = 2; r = 1.0 };
          Resistor { n1 = 2; n2 = 0; r = 1.0 };
          Current_source { n1 = 1; n2 = 0; input = 0; gain = 1.0 };
        ]
  in
  let a = Circuit.Netlist.assemble nl in
  Alcotest.(check bool) "quadratize raises Singular" true
    (try
       ignore (Circuit.Quadratize.quadratize a);
       false
     with Lu.Singular _ -> true)

let test_qldae_shape_validation () =
  let g1 = Mat.identity 3 in
  let b = Mat.create 3 1 in
  let c = Mat.create 1 3 in
  expect_invalid "wrong G2 shape" (fun () ->
      Volterra.Qldae.make
        ~g2:(Sptensor.zero ~n_out:2 ~n_in:2 ~arity:2)
        ~g1 ~b ~c ());
  expect_invalid "wrong D1 count" (fun () ->
      Volterra.Qldae.make ~d1:[| Mat.create 3 3; Mat.create 3 3 |] ~g1 ~b ~c ());
  expect_invalid "wrong c width" (fun () ->
      Volterra.Qldae.make ~g1 ~b ~c:(Mat.create 1 2) ())

let test_vector_dim_checks () =
  expect_invalid "vec add" (fun () -> Vec.add (Vec.create 2) (Vec.create 3));
  expect_invalid "mat mul" (fun () -> Mat.mul (Mat.create 2 3) (Mat.create 2 3));
  expect_invalid "mat_vec" (fun () -> Mat.mul_vec (Mat.create 2 3) (Vec.create 2));
  expect_invalid "lu not square" (fun () -> Lu.factor (Mat.create 2 3));
  expect_invalid "qr wide" (fun () -> Qr.factor (Mat.create 2 5))

let test_sptensor_validation () =
  expect_invalid "row out of range" (fun () ->
      Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (5, [| 0; 0 |], 1.0) ]);
  expect_invalid "arity mismatch" (fun () ->
      Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (0, [| 0 |], 1.0) ]);
  expect_invalid "index out of range" (fun () ->
      Sptensor.create ~n_out:2 ~n_in:2 ~arity:2 [ (0, [| 0; 7 |], 1.0) ])

let test_finite_escape_detected () =
  (* x' = 1 + x²: finite escape at t = pi/2; integrators must raise
     rather than return garbage *)
  let sys =
    {
      Ode.Types.dim = 1;
      rhs = (fun _ x -> Vec.of_list [ 1.0 +. (x.(0) *. x.(0)) ]);
      jac = Some (fun _ x -> Mat.of_list [ [ 2.0 *. x.(0) ] ]);
    }
  in
  Alcotest.(check bool) "rkf45 raises" true
    (try
       ignore
         (Ode.Rkf45.integrate sys ~t0:0.0 ~t1:3.0 ~x0:(Vec.of_list [ 0.0 ])
            ~samples:4 ());
       false
     with Ode.Types.Step_failure _ -> true)

let test_solver_bad_args () =
  expect_invalid "rk4 nonpositive step" (fun () ->
      Ode.Rk4.integrate
        {
          Ode.Types.dim = 1;
          rhs = (fun _ x -> x);
          jac = None;
        }
        ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ]) ~h:0.0 ~samples:2);
  expect_invalid "sample_times needs 2" (fun () ->
      Ode.Types.sample_times ~t0:0.0 ~t1:1.0 ~samples:1)

let test_mor_bad_args () =
  let q =
    Volterra.Qldae.make ~g1:(Mat.scale (-1.0) (Mat.identity 3))
      ~b:(Mat.init 3 1 (fun _ _ -> 1.0))
      ~c:(Mat.create 1 3) ()
  in
  expect_invalid "no moments requested" (fun () ->
      Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 0; k2 = 0; k3 = 0 } q);
  expect_invalid "negative order" (fun () ->
      Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = -1; k2 = 0; k3 = 0 } q);
  expect_invalid "multipoint needs points" (fun () ->
      Mor.Atmor.reduce_multipoint ~points:[]
        ~orders:{ Mor.Atmor.k1 = 2; k2 = 0; k3 = 0 }
        q)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "validation",
      [
        tc "netlist" `Quick test_netlist_validation;
        tc "singular mass matrix" `Quick test_singular_mass_matrix;
        tc "qldae shapes" `Quick test_qldae_shape_validation;
        tc "vector/matrix dims" `Quick test_vector_dim_checks;
        tc "sptensor entries" `Quick test_sptensor_validation;
        tc "finite escape detection" `Quick test_finite_escape_detected;
        tc "solver arguments" `Quick test_solver_bad_args;
        tc "mor arguments" `Quick test_mor_bad_args;
      ] );
  ]
