(* Tests for the MOR layer: the proposed associated-transform method
   (Atmor), the NORM baseline, and the eq.-18 Sylvester ablation.

   Moment-matching semantics validated here (see DESIGN.md):
   - H1 moments match EXACTLY up to k1 for both methods (classical
     one-sided Krylov result; every intermediate lies in span V).
   - NORM matches the multivariate H2 moments exactly, hence also the
     associated H2(s) moments (each is a finite combination of
     multivariate ones) — at the cost of an O(k2³) basis.
   - The proposed method keeps only O(k2) basis vectors; its reduced
     H2(s) moments match approximately (the ⊕²-chains live in V ⊗ V,
     which a one-sided projection does not control). The paper's
     "without compromising accuracy" is an empirical statement, which
     the transient tests below (and the experiments) bear out. *)

open La

let rng = Random.State.make [| 99 |]

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let random_stable n =
  let a = Mat.random ~rng n n in
  Mat.sub (Mat.scale 0.4 a) (Mat.scale 1.5 (Mat.identity n))

let random_qldae ?(n = 8) ?(with_d1 = true) () =
  let g1 = random_stable n in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n
      (Mat.scale 0.25 (Mat.random ~rng n (n * n)))
  in
  let d1 =
    if with_d1 then [| Mat.scale 0.25 (Mat.random ~rng n n) |]
    else [| Mat.create n n |]
  in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  Volterra.Qldae.make ~g2 ~d1 ~g1 ~b ~c ()

(* ---- moment matching semantics ---- *)

let output_h1_moments ?s0 q ~k =
  let eng = Volterra.Assoc.create ?s0 q in
  let c = Mat.row q.Volterra.Qldae.c 0 in
  List.map (Vec.dot c) (Volterra.Assoc.h1_moments eng ~k)

let output_h2_moments ?s0 q ~k =
  let eng = Volterra.Assoc.create ?s0 q in
  let c = Mat.row q.Volterra.Qldae.c 0 in
  List.map (Vec.dot c) (Volterra.Assoc.h2_moments eng ~k)

let test_atmor_h1_exact () =
  let q = random_qldae () in
  let s0 = 0.5 in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } in
  let r = Mor.Atmor.reduce ~s0 ~orders q in
  let full = output_h1_moments ~s0 q ~k:4 in
  let red = output_h1_moments ~s0 r.Mor.Atmor.rom ~k:4 in
  List.iteri
    (fun i (a, b) ->
      check_small
        (Printf.sprintf "H1 moment %d exact" i)
        (Float.abs ((a -. b) /. a))
        1e-10)
    (List.combine full red)

(* State-level counterpart: the projection basis spans the H1 moment
   chain (s0 I - G1)^-j b, j = 1..k1, that the QR step orthonormalizes. *)
let test_atmor_basis_spans_h1_chain () =
  let q = random_qldae ~with_d1:false () in
  let s0 = 0.7 in
  let r =
    Mor.Atmor.reduce ~s0 ~orders:{ Mor.Atmor.k1 = 4; k2 = 0; k3 = 0 } q
  in
  let v = r.Mor.Atmor.basis in
  Alcotest.(check int) "one column per moment" 4 (Mat.cols v);
  let n = Volterra.Qldae.dim q in
  let lu =
    Lu.factor
      (Mat.sub (Mat.scale s0 (Mat.identity n)) q.Volterra.Qldae.g1)
  in
  let x = ref (Mat.col q.Volterra.Qldae.b 0) in
  for j = 1 to 4 do
    x := Lu.solve lu !x;
    let proj = Mat.mul_vec v (Mat.mul_vec_transpose v !x) in
    check_small
      (Printf.sprintf "moment %d in span" j)
      (Vec.dist2 !x proj /. Vec.norm2 !x)
      1e-9
  done

let test_atmor_h2_approx () =
  let q = random_qldae () in
  let s0 = 0.5 in
  let orders = { Mor.Atmor.k1 = 4; k2 = 3; k3 = 0 } in
  let r = Mor.Atmor.reduce ~s0 ~orders q in
  let full = output_h2_moments ~s0 q ~k:3 in
  let red = output_h2_moments ~s0 r.Mor.Atmor.rom ~k:3 in
  List.iteri
    (fun i (a, b) ->
      check_small
        (Printf.sprintf "H2 moment %d approximately matched" i)
        (Float.abs ((a -. b) /. a))
        0.05)
    (List.combine full red);
  (* sanity: a basis *without* the H2 moment vectors does clearly
     worse on the leading H2 moment *)
  let r0 = Mor.Atmor.reduce ~s0 ~orders:{ Mor.Atmor.k1 = 4; k2 = 0; k3 = 0 } q in
  let red0 = output_h2_moments ~s0 r0.Mor.Atmor.rom ~k:1 in
  let e_with =
    Float.abs ((List.nth full 0 -. List.nth red 0) /. List.nth full 0)
  in
  let e_without =
    Float.abs ((List.nth full 0 -. List.nth red0 0) /. List.nth full 0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "H2 vectors help (%.2e with vs %.2e without)" e_with
       e_without)
    true
    (e_with < 0.3 *. e_without)

let test_norm_h2_exact () =
  (* NORM contains every multivariate moment vector, so the associated
     H2 moments (finite combinations of multivariate ones) match to
     machine precision. *)
  let q = random_qldae () in
  let s0 = 0.5 in
  let orders = { Mor.Atmor.k1 = 4; k2 = 3; k3 = 0 } in
  let r = Mor.Norm.reduce ~s0 ~orders q in
  let full = output_h2_moments ~s0 q ~k:3 in
  let red = output_h2_moments ~s0 r.Mor.Atmor.rom ~k:3 in
  List.iteri
    (fun i (a, b) ->
      check_small
        (Printf.sprintf "NORM H2 moment %d exact" i)
        (Float.abs ((a -. b) /. a))
        1e-8)
    (List.combine full red)

let test_order_counts () =
  (* the headline complexity claim: proposed O(k1+k2+k3) vs NORM's
     combinatorial growth, at identical moment orders *)
  let q = random_qldae ~n:40 () in
  let s0 = 0.5 in
  let orders = { Mor.Atmor.k1 = 4; k2 = 3; k3 = 2 } in
  let at = Mor.Atmor.reduce ~s0 ~orders q in
  let nr = Mor.Norm.reduce ~s0 ~orders q in
  let qat = Mor.Atmor.order at and qnr = Mor.Norm.order nr in
  Alcotest.(check bool)
    (Printf.sprintf "proposed order %d = k1+k2+k3 = 9" qat)
    true (qat <= 9);
  Alcotest.(check bool)
    (Printf.sprintf "NORM order %d substantially larger" qnr)
    true
    (qnr >= (3 * qat) / 2);
  Alcotest.(check bool)
    (Printf.sprintf "NORM raw vectors %d reflect k2^3 growth" nr.Mor.Atmor.raw_moments)
    true
    (nr.Mor.Atmor.raw_moments > 25)

(* ---- transient accuracy on a real circuit ---- *)

let nltl_input t = Vec.of_list [ 0.5 *. Float.exp (-0.4 *. t) *. (1.0 -. Float.exp (-1.0 *. t)) ]

let transient_rel_err full_q rom_basis rom =
  let t1 = 12.0 and samples = 40 in
  let sol_f =
    Volterra.Qldae.simulate full_q ~input:nltl_input ~t0:0.0 ~t1 ~samples
  in
  let sol_r = Volterra.Qldae.simulate rom ~input:nltl_input ~t0:0.0 ~t1 ~samples in
  (* compare lifted states: V x_r vs x *)
  let err = ref 0.0 and scale = ref 0.0 in
  Array.iteri
    (fun i xf ->
      let xr = Mat.mul_vec rom_basis sol_r.Ode.Types.states.(i) in
      err := Float.max !err (Vec.dist2 xf xr);
      scale := Float.max !scale (Vec.norm2 xf))
    sol_f.Ode.Types.states;
  !err /. Float.max !scale 1e-30

let test_atmor_nltl_transient () =
  let m = Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) () in
  let q = Circuit.Models.qldae m in
  let orders = { Mor.Atmor.k1 = 5; k2 = 3; k3 = 0 } in
  let r = Mor.Atmor.reduce ~orders q in
  Alcotest.(check bool)
    (Printf.sprintf "ROM order %d << %d" (Mor.Atmor.order r) (Volterra.Qldae.dim q))
    true
    (Mor.Atmor.order r < Volterra.Qldae.dim q / 2 + 1);
  let e = transient_rel_err q r.Mor.Atmor.basis r.Mor.Atmor.rom in
  check_small "NLTL transient relative error" e 0.02

let test_atmor_vs_norm_accuracy_parity () =
  (* the paper's §3.2 observation: same moment orders, comparable
     accuracy, smaller proposed ROM *)
  let m = Circuit.Models.nltl_current ~stages:8 () in
  let q = Circuit.Models.qldae m in
  let orders = { Mor.Atmor.k1 = 5; k2 = 2; k3 = 0 } in
  let at = Mor.Atmor.reduce ~orders q in
  let nr = Mor.Norm.reduce ~orders q in
  let e_at = transient_rel_err q at.Mor.Atmor.basis at.Mor.Atmor.rom in
  let e_nr = transient_rel_err q nr.Mor.Atmor.basis nr.Mor.Atmor.rom in
  Alcotest.(check bool)
    (Printf.sprintf "proposed order %d < NORM order %d" (Mor.Atmor.order at)
       (Mor.Norm.order nr))
    true
    (Mor.Atmor.order at < Mor.Norm.order nr);
  check_small "proposed accurate" e_at 0.03;
  check_small "NORM accurate" e_nr 0.03;
  Alcotest.(check bool)
    (Printf.sprintf "comparable accuracy (%.2e vs %.2e)" e_at e_nr)
    true
    (e_at < 10.0 *. Float.max e_nr 1e-4)

let test_sylvester_path_contains_moments () =
  (* eq.-18 ablation: the decoupled-branch subspace contains the block
     moment vectors (it splits each moment into two spanning parts) *)
  let q = random_qldae ~n:7 () in
  let s0 = 0.6 in
  let orders = { Mor.Atmor.k1 = 3; k2 = 3; k3 = 0 } in
  let syl = Mor.Atmor.reduce_sylvester ~s0 ~orders q in
  let v = syl.Mor.Atmor.basis in
  let eng = Volterra.Assoc.create ~s0 q in
  List.iteri
    (fun i m ->
      let proj = Mat.mul_vec v (Mat.mul_vec_transpose v m) in
      check_small
        (Printf.sprintf "block moment %d in Sylvester-path span" i)
        (Vec.dist2 m proj /. Vec.norm2 m)
        1e-7)
    (Volterra.Assoc.h2_moments eng ~k:3)

(* SISO weakly nonlinear ladder with nonsingular G1 — the eq.-18
   Sylvester decoupling needs the spectral condition
   lambda_i != lambda_j + lambda_k, which quadratized diode circuits
   violate (their augmented G1 is singular: 0 = 0 + 0). *)
let siso_poly_ladder stages =
  let elements = ref [] in
  let addel e = elements := e :: !elements in
  for node = 1 to stages do
    addel (Circuit.Netlist.Capacitor { n1 = node; n2 = 0; c = 1.0 });
    (* slightly graded conductances: a perfectly uniform ladder has
       trigonometric eigenvalues with exact coincidences
       lambda_i = lambda_j + lambda_k, which the eq.-18 solvability
       check rightly rejects *)
    addel
      (Circuit.Netlist.Poly_conductor
         {
           n1 = node;
           n2 = 0;
           g1 = 1.0 +. (0.03 *. float_of_int node);
           g2 = 0.3;
           g3 = 0.0;
         })
  done;
  for node = 1 to stages - 1 do
    addel (Circuit.Netlist.Resistor { n1 = node; n2 = node + 1; r = 1.0 })
  done;
  addel (Circuit.Netlist.Current_source { n1 = 1; n2 = 0; input = 0; gain = 1.0 });
  let nl =
    Circuit.Netlist.make ~n_nodes:stages ~n_inputs:1 ~output_node:stages
      (List.rev !elements)
  in
  (Circuit.Quadratize.quadratize (Circuit.Netlist.assemble nl)).Circuit.Quadratize.qldae

let test_sylvester_path_transient () =
  let q = siso_poly_ladder 10 in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } in
  let r = Mor.Atmor.reduce_sylvester ~s0:0.0 ~orders q in
  let e = transient_rel_err q r.Mor.Atmor.basis r.Mor.Atmor.rom in
  check_small "Sylvester-path ROM transient error" e 0.02

let test_sylvester_rejects_singular () =
  (* quadratized diode circuit: G1 singular, eq.18 must refuse *)
  let m = Circuit.Models.nltl ~stages:5 ~source:(`Voltage 1.0) () in
  let q = Circuit.Models.qldae m in
  Alcotest.(check bool) "raises Near_singular" true
    (try
       ignore
         (Mor.Atmor.reduce_sylvester
            ~orders:{ Mor.Atmor.k1 = 2; k2 = 2; k3 = 0 }
            q);
       false
     with La.Ksolve.Near_singular _ -> true)

let test_miso_reduction () =
  let m = Circuit.Models.rf_receiver ~lna_stages:12 ~pa_stages:12 () in
  let q = Circuit.Models.qldae m in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } in
  let r = Mor.Atmor.reduce ~orders q in
  Alcotest.(check bool) "reduced" true (Mor.Atmor.order r < 16);
  let input t = Vec.of_list [ 0.4 *. sin (1.5 *. t); 0.2 *. sin (4.0 *. t) ] in
  let t1 = 10.0 and samples = 30 in
  let sf = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1 ~samples in
  let sr = Volterra.Qldae.simulate r.Mor.Atmor.rom ~input ~t0:0.0 ~t1 ~samples in
  let yf = Volterra.Qldae.output q sf and yr = Volterra.Qldae.output r.Mor.Atmor.rom sr in
  let err = ref 0.0 and scale = ref 0.0 in
  Array.iteri
    (fun i y ->
      err := Float.max !err (Float.abs (y -. yr.(i)));
      scale := Float.max !scale (Float.abs y))
    yf;
  check_small "MISO output error" (!err /. !scale) 0.03

let test_cubic_reduction () =
  let m = Circuit.Models.varistor ~sections:6 () in
  let q = Circuit.Models.qldae m in
  let orders = { Mor.Atmor.k1 = 7; k2 = 0; k3 = 2 } in
  let r = Mor.Atmor.reduce ~orders q in
  Alcotest.(check bool) "reduced" true (Mor.Atmor.order r <= 9);
  let input t =
    Vec.of_list [ 20.0 *. (Float.exp (-0.5 *. t) -. Float.exp (-3.0 *. t)) ]
  in
  let t1 = 8.0 and samples = 25 in
  let sf = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1 ~samples in
  let sr = Volterra.Qldae.simulate r.Mor.Atmor.rom ~input ~t0:0.0 ~t1 ~samples in
  let yf = Volterra.Qldae.output q sf and yr = Volterra.Qldae.output r.Mor.Atmor.rom sr in
  let err = ref 0.0 and scale = ref 0.0 in
  Array.iteri
    (fun i y ->
      err := Float.max !err (Float.abs (y -. yr.(i)));
      scale := Float.max !scale (Float.abs y))
    yf;
  (* strongly nonlinear clamping: small-signal moment bases plateau
     around a few percent here; the paper-scale experiment (102 -> 8)
     shows the same visual-match quality as Fig. 5b *)
  check_small "cubic varistor ROM output error" (!err /. !scale) 0.12

let test_projection_consistency () =
  (* projecting with the identity basis is a no-op on dynamics *)
  let q = random_qldae ~n:5 () in
  let v = Mat.identity 5 in
  let rom = Volterra.Qldae.project q v in
  let x = Mat.random_vec ~rng 5 and u = Vec.of_list [ 0.7 ] in
  check_small "identity projection preserves rhs"
    (Vec.dist2 (Volterra.Qldae.rhs q x u) (Volterra.Qldae.rhs rom x u))
    1e-10

let suite =
  let tc = Alcotest.test_case in
  [
    ( "mor.moments",
      [
        tc "proposed: H1 moments exact" `Quick test_atmor_h1_exact;
        tc "proposed: H2 moments approximate" `Quick test_atmor_h2_approx;
        tc "NORM: associated H2 moments exact" `Quick test_norm_h2_exact;
        tc "order counts: O(k) vs O(k^3)" `Quick test_order_counts;
        tc "proposed: basis spans the H1 chain" `Quick
          test_atmor_basis_spans_h1_chain;
      ] );
    ( "mor.transient",
      [
        tc "proposed on NLTL" `Slow test_atmor_nltl_transient;
        tc "proposed vs NORM parity" `Slow test_atmor_vs_norm_accuracy_parity;
        tc "MISO RF receiver" `Slow test_miso_reduction;
        tc "cubic varistor" `Slow test_cubic_reduction;
      ] );
    ( "mor.sylvester_path",
      [
        tc "span contains block moments" `Quick test_sylvester_path_contains_moments;
        tc "transient accuracy" `Slow test_sylvester_path_transient;
        tc "singular G1 rejected" `Quick test_sylvester_rejects_singular;
      ] );
    ( "mor.projection",
      [ tc "identity basis no-op" `Quick test_projection_consistency ] );
  ]
