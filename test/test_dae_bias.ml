(* Tests for the §4-remark DC operating point and equilibrium
   recentring. *)

open La

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let check_float name expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.6g, got %.6g)" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

(* ---- DC operating point and equilibrium shift ---- *)

let test_dc_operating_point_diode () =
  (* single diode node: C v' = -v/R - (e^{av} - 1) + I0.
     At equilibrium: v/R + e^{av} - 1 = I0. *)
  let nl =
    Circuit.Netlist.make ~n_nodes:1 ~n_inputs:1 ~output_node:1
      Circuit.Netlist.
        [
          Capacitor { n1 = 1; n2 = 0; c = 1.0 };
          Resistor { n1 = 1; n2 = 0; r = 1.0 };
          Diode { n1 = 1; n2 = 0; alpha = 5.0; scale = 1.0 };
          Current_source { n1 = 1; n2 = 0; input = 0; gain = 1.0 };
        ]
  in
  let a = Circuit.Netlist.assemble nl in
  let q = (Circuit.Quadratize.quadratize a).Circuit.Quadratize.qldae in
  let u0 = Vec.of_list [ 0.5 ] in
  (* quadratized diode systems have a continuum of off-manifold
     equilibria (y' vanishes whenever v' does), so the DC point is
     solved on the circuit and lifted onto the y = e^{av} - 1
     manifold *)
  let x0 = Circuit.Quadratize.lift a (Circuit.Netlist.dc_operating_point a ~u0) in
  check_small "equilibrium residual" (Vec.norm2 (Volterra.Qldae.rhs q x0 u0)) 1e-9;
  (* check against the scalar equation solved directly *)
  let v = x0.(0) in
  check_small "scalar KCL at equilibrium"
    (Float.abs (v +. Float.exp (5.0 *. v) -. 1.0 -. 0.5))
    1e-9;
  (* the auxiliary state must sit on its manifold y = e^{av} - 1 *)
  check_small "aux state on manifold"
    (Float.abs (x0.(1) -. (Float.exp (5.0 *. v) -. 1.0)))
    1e-9

let test_shift_equilibrium_exact () =
  (* recentred system must generate the same trajectories: simulate the
     original from x0 and the shifted one from 0 under u = u0 + step *)
  let q =
    Circuit.Models.qldae (Circuit.Models.varistor ~sections:5 ())
  in
  let u0 = Vec.of_list [ 10.0 ] in
  let x0 = Volterra.Qldae.dc_operating_point q ~u0 in
  Alcotest.(check bool) "nontrivial bias" true (Vec.norm2 x0 > 0.1);
  let shifted = Volterra.Qldae.shift_equilibrium q ~x0 ~u0 in
  check_small "shifted equilibrium at origin"
    (Vec.norm2
       (Volterra.Qldae.rhs shifted
          (Vec.create (Volterra.Qldae.dim shifted))
          (Vec.create 1)))
    1e-9;
  let du t = 3.0 *. sin (0.7 *. t) in
  let sol_orig =
    Volterra.Qldae.simulate q ~x0
      ~input:(fun t -> Vec.of_list [ 10.0 +. du t ])
      ~t0:0.0 ~t1:8.0 ~samples:9
  in
  let sol_shift =
    Volterra.Qldae.simulate shifted
      ~input:(fun t -> Vec.of_list [ du t ])
      ~t0:0.0 ~t1:8.0 ~samples:9
  in
  Array.iteri
    (fun i x ->
      let d = sol_shift.Ode.Types.states.(i) in
      check_small "shifted trajectory = original - x0"
        (Vec.dist2 (Vec.add d x0) x)
        1e-5)
    sol_orig.Ode.Types.states

let test_shift_requires_equilibrium () =
  let q = Circuit.Models.qldae (Circuit.Models.varistor ~sections:4 ()) in
  let bogus = Vec.constant (Volterra.Qldae.dim q) 1.0 in
  Alcotest.(check bool) "non-equilibrium rejected" true
    (try
       ignore (Volterra.Qldae.shift_equilibrium q ~x0:bogus ~u0:(Vec.of_list [ 0.0 ]));
       false
     with Invalid_argument _ -> true)

let test_biased_reduction () =
  (* the workflow for biased circuits: find DC point, recentre, reduce,
     simulate the deviation, add the bias back *)
  let q = Circuit.Models.qldae (Circuit.Models.varistor ~sections:20 ()) in
  let bias = 20.0 in
  let u0 = Vec.of_list [ bias ] in
  let x0 = Volterra.Qldae.dc_operating_point q ~u0 in
  let shifted = Volterra.Qldae.shift_equilibrium q ~x0 ~u0 in
  let r =
    Mor.Atmor.reduce ~s0:0.5 ~orders:{ Mor.Atmor.k1 = 6; k2 = 2; k3 = 1 }
      shifted
  in
  let du t = 15.0 *. (Float.exp (-0.4 *. t) -. Float.exp (-2.0 *. t)) in
  let sol_full =
    Volterra.Qldae.simulate q ~x0
      ~input:(fun t -> Vec.of_list [ bias +. du t ])
      ~t0:0.0 ~t1:12.0 ~samples:37
  in
  let yf = Volterra.Qldae.output q sol_full in
  let sol_rom =
    Volterra.Qldae.simulate r.Mor.Atmor.rom
      ~input:(fun t -> Vec.of_list [ du t ])
      ~t0:0.0 ~t1:12.0 ~samples:37
  in
  let y_bias = Vec.dot (La.Mat.row q.Volterra.Qldae.c 0) x0 in
  let yr =
    Array.map (fun y -> y +. y_bias) (Volterra.Qldae.output r.Mor.Atmor.rom sol_rom)
  in
  check_small "biased ROM tracks biased full model"
    (Waves.Metrics.max_relative_error ~reference:yf ~approx:yr)
    0.03;
  (* sanity: the output really rides a standing bias *)
  Alcotest.(check bool)
    (Printf.sprintf "standing bias %.2f present" y_bias)
    true
    (Float.abs y_bias > 0.2)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "dae.bias",
      [
        tc "diode DC operating point" `Quick test_dc_operating_point_diode;
        tc "equilibrium shift is exact" `Quick test_shift_equilibrium_exact;
        tc "non-equilibrium rejected" `Quick test_shift_requires_equilibrium;
        tc "biased reduction workflow" `Slow test_biased_reduction;
      ] );
  ]
