(* Tests for the §4 extensions: Lyapunov/Hankel machinery, automatic
   moment-order selection, and multipoint expansion. *)

open La

let rng = Random.State.make [| 4242 |]

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let random_stable n =
  let a = Mat.random ~rng n n in
  Mat.sub (Mat.scale 0.4 a) (Mat.scale 1.5 (Mat.identity n))

(* ---- Lyapunov / Hankel ---- *)

let test_lyapunov_residual () =
  let a = random_stable 8 in
  let q0 = Mat.random ~rng 8 8 in
  let q = Mat.mul q0 (Mat.transpose q0) in
  (* PSD rhs *)
  let p = Lyapunov.solve ~a ~q in
  let r = Mat.add (Mat.add (Mat.mul a p) (Mat.mul p (Mat.transpose a))) q in
  check_small "Lyapunov residual" (Mat.norm_fro r /. (1.0 +. Mat.norm_fro q)) 1e-8;
  Alcotest.(check bool) "P symmetric" true (Mat.is_symmetric ~tol:1e-8 p)

(* The Schur factorization behind the solve decides stability: an
   eigenvalue at 0.5 raises the typed Non_hurwitz with that abscissa. *)
let test_lyapunov_non_hurwitz () =
  let a = Mat.diag (Vec.of_list [ 0.5; -2.0 ]) in
  match Lyapunov.solve ~a ~q:(Mat.identity 2) with
  | _ -> Alcotest.fail "unstable A accepted"
  | exception Robust.Error.Error (Robust.Error.Non_hurwitz { max_re; _ }) ->
    check_small "spectral abscissa" (Float.abs (max_re -. 0.5)) 1e-12

(* A paper-scale gramian: the varistor's G1 (n = 102, four complex
   eigenvalues) through the ⊕² solve. *)
let test_lyapunov_varistor () =
  let q = Circuit.Models.qldae (Circuit.Models.varistor ()) in
  let a = q.Volterra.Qldae.g1 and b = q.Volterra.Qldae.b in
  Alcotest.(check int) "paper's 102 states" 102 (Mat.rows a);
  let bbt = Mat.mul b (Mat.transpose b) in
  let p = Lyapunov.controllability ~a ~b in
  let r = Mat.add (Mat.add (Mat.mul a p) (Mat.mul p (Mat.transpose a))) bbt in
  check_small "controllability residual"
    (Mat.norm_fro r /. (1.0 +. Mat.norm_fro bbt))
    1e-10

let test_gramian_scalar () =
  (* scalar system x' = -a x + b u: P = b^2 / (2a) *)
  let a = Mat.of_list [ [ -2.0 ] ] and b = Mat.of_list [ [ 3.0 ] ] in
  let p = Lyapunov.controllability ~a ~b in
  check_small "scalar gramian" (Float.abs (Mat.get p 0 0 -. (9.0 /. 4.0))) 1e-10

let test_hankel_scalar () =
  (* scalar system: single HSV = |c| |b| / (2a) *)
  let a = Mat.of_list [ [ -2.0 ] ]
  and b = Mat.of_list [ [ 3.0 ] ]
  and c = Mat.of_list [ [ 4.0 ] ] in
  let svs = Lyapunov.hankel_singular_values ~a ~b ~c in
  Alcotest.(check int) "one HSV" 1 (Array.length svs);
  check_small "HSV value" (Float.abs (svs.(0) -. (12.0 /. 4.0))) 1e-9

let test_hankel_decay_ladder () =
  (* an RC ladder's HSVs decay fast: the suggested order is much
     smaller than the state count *)
  let n = 20 in
  let a =
    Mat.init n n (fun i j ->
        if i = j then -2.0
        else if abs (i - j) = 1 then 1.0
        else 0.0)
  in
  let b = Mat.init n 1 (fun i _ -> if i = 0 then 1.0 else 0.0) in
  let c = Mat.init 1 n (fun _ j -> if j = n - 1 then 1.0 else 0.0) in
  let k = Lyapunov.suggested_order ~tol:1e-8 ~a ~b ~c () in
  Alcotest.(check bool)
    (Printf.sprintf "suggested order %d << %d" k n)
    true
    (k > 0 && k < n)

let test_hankel_balanced_truncation_bound () =
  (* sanity: dropping states below the HSV threshold keeps the transfer
     function close at s = j (coarse check of the machinery) *)
  let n = 10 in
  let a = random_stable n in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  let svs = Lyapunov.hankel_singular_values ~a ~b ~c in
  Alcotest.(check bool) "descending" true
    (Array.for_all Fun.id (Array.mapi (fun i s -> i = 0 || s <= svs.(i - 1)) svs))

(* ---- automatic order selection ---- *)

let test_suggest_k1 () =
  let q = Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:10 ~pa_stages:10 ()) in
  (match Mor.Autoselect.suggest_k1 ~tol:1e-5 q with
  | Some k ->
    Alcotest.(check bool) (Printf.sprintf "suggested k1 = %d in (0, n)" k) true
      (k > 0 && k < Volterra.Qldae.dim q)
  | None -> Alcotest.fail "rf receiver G1 is Hurwitz; expected a suggestion");
  (* diode circuit: G1 singular -> None *)
  let qd = Circuit.Models.qldae (Circuit.Models.nltl ~stages:6 ~source:(`Voltage 1.0) ()) in
  Alcotest.(check bool) "singular G1 gives None" true
    (Mor.Autoselect.suggest_k1 qd = None)

let test_autoselect_reduces () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl ~stages:12 ~source:(`Voltage 1.0) ()) in
  let sel = Mor.Autoselect.reduce ~growth_tol:1e-6 q in
  let r = sel.Mor.Autoselect.result in
  Alcotest.(check bool) "chose k1 > 0" true (sel.Mor.Autoselect.chosen.Mor.Atmor.k1 > 0);
  Alcotest.(check bool)
    (Printf.sprintf "order %d < n %d" (Mor.Atmor.order r) (Volterra.Qldae.dim q))
    true
    (Mor.Atmor.order r < Volterra.Qldae.dim q);
  (* the auto-selected ROM is accurate on the standard excitation *)
  let input =
    Waves.Source.vectorize
      [ Waves.Source.damped_sine ~freq:0.125 ~decay:0.08 0.6 ]
  in
  let sol = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1:20.0 ~samples:51 in
  let yf = Volterra.Qldae.output q sol in
  let sr =
    Volterra.Qldae.simulate r.Mor.Atmor.rom ~input ~t0:0.0 ~t1:20.0 ~samples:51
  in
  let yr = Volterra.Qldae.output r.Mor.Atmor.rom sr in
  check_small "auto-selected ROM accuracy"
    (Waves.Metrics.max_relative_error ~reference:yf ~approx:yr)
    0.02

(* Exact bits of a basis, as one hex digest. *)
let mat_digest (m : Mat.t) =
  let buf = Buffer.create 4096 in
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h;" x)) (Mat.data m);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Growth forces only the moment steps it inspects: the step that adds
   nothing is the last one computed. Computing all kmax steps of every
   series up front took 42 ⊕²/⊕³ solves on the RF receiver 15+15
   (n = 30, 2 inputs) and 15 on the 15-stage NLTL, against 28 and 10
   here; the chosen orders and raw moment counts are unchanged. The
   NLTL's D1 term reads the H2 series the growth already stepped (a
   chain of its own took three ⊕² and three resolvent solves more).
   The counts include the resolvent (k = 1) solves of the probe and of
   every growth step, which run on the same Schur factorization: 32 on
   the RF receiver, 15 on the NLTL. Basis digests recorded on x86-64. *)
let test_autoselect_lazy_growth () =
  Obs.Metrics.set_enabled true;
  let check name q ~solves ~chosen ~order ~raw ~basis =
    let snap = Obs.Metrics.snapshot () in
    let sel = Mor.Autoselect.reduce ~growth_tol:1e-6 q in
    Alcotest.(check int) (name ^ ": shifted solves") solves
      (Option.value ~default:0
         (List.assoc_opt Obs.Metrics.Shifted_solve (Obs.Metrics.since snap)));
    let c = sel.Mor.Autoselect.chosen and r = sel.Mor.Autoselect.result in
    Alcotest.(check (triple int int int)) (name ^ ": chosen") chosen
      (c.Mor.Atmor.k1, c.Mor.Atmor.k2, c.Mor.Atmor.k3);
    Alcotest.(check int) (name ^ ": ROM order") order (Mor.Atmor.order r);
    Alcotest.(check int) (name ^ ": raw moments") raw r.Mor.Atmor.raw_moments;
    Alcotest.(check string) (name ^ ": basis bits") basis (mat_digest r.Mor.Atmor.basis)
  in
  check "RF 15+15"
    (Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:15 ~pa_stages:15 ()))
    ~solves:60 ~chosen:(4, 3, 1) ~order:20 ~raw:30
    ~basis:"abdcd8324691bc6a744b4531b7454fa3";
  check "NLTL 15"
    (Circuit.Models.qldae (Circuit.Models.nltl ~stages:15 ~source:(`Voltage 1.0) ()))
    ~solves:25 ~chosen:(6, 3, 2) ~order:11 ~raw:14
    ~basis:"cb4a396ef820ed5392d364835a33d127"

let test_autoselect_growth_stops () =
  (* a purely linear system must keep k2 = k3 = 0 *)
  let n = 8 in
  let g1 = random_stable n in
  let b = Mat.init n 1 (fun i _ -> float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  let q = Volterra.Qldae.make ~g1 ~b ~c () in
  let sel = Mor.Autoselect.reduce ~s0:0.5 q in
  Alcotest.(check int) "k2 = 0" 0 sel.Mor.Autoselect.chosen.Mor.Atmor.k2;
  Alcotest.(check int) "k3 = 0" 0 sel.Mor.Autoselect.chosen.Mor.Atmor.k3;
  Alcotest.(check bool) "k1 capped by rank" true
    (sel.Mor.Autoselect.chosen.Mor.Atmor.k1 <= n)

(* ---- multipoint expansion ---- *)

let test_multipoint_contains_both () =
  let q = Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:8 ~pa_stages:8 ()) in
  let orders = { Mor.Atmor.k1 = 3; k2 = 1; k3 = 0 } in
  let r = Mor.Atmor.reduce_multipoint ~points:[ 0.0; 1.0 ] ~orders q in
  let v = r.Mor.Atmor.basis in
  (* the subspace contains the H1 moment chains of both points *)
  List.iter
    (fun s0 ->
      let eng = Volterra.Assoc.create ~s0 q in
      List.iteri
        (fun i m ->
          let proj = Mat.mul_vec v (Mat.mul_vec_transpose v m) in
          check_small
            (Printf.sprintf "moment %d at s0=%.1f in span" i s0)
            (Vec.dist2 m proj /. Vec.norm2 m)
            1e-7)
        (Volterra.Assoc.h1_moments eng ~k:3))
    [ 0.0; 1.0 ]

let test_multipoint_beats_single_point_wideband () =
  (* H1 tracking across a wide band: two-point basis outperforms a
     single DC expansion of the same total size on the high band *)
  let q = Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:12 ~pa_stages:12 ()) in
  let orders1 = { Mor.Atmor.k1 = 6; k2 = 0; k3 = 0 } in
  let orders2 = { Mor.Atmor.k1 = 3; k2 = 0; k3 = 0 } in
  let single = Mor.Atmor.reduce ~s0:0.0 ~orders:orders1 q in
  let multi = Mor.Atmor.reduce_multipoint ~points:[ 0.0; 4.0 ] ~orders:orders2 q in
  let h1_err (r : Mor.Atmor.result) w =
    let s = { Complex.re = 0.0; im = w } in
    let tf_full = Volterra.Transfer.create q in
    let tf_rom = Volterra.Transfer.create r.Mor.Atmor.rom in
    let hf = Volterra.Transfer.output_h1 tf_full ~input:0 s in
    let hr = Volterra.Transfer.output_h1 tf_rom ~input:0 s in
    Complex.norm (Complex.sub hf hr) /. Complex.norm hf
  in
  let w = 4.0 in
  let e_single = h1_err single w and e_multi = h1_err multi w in
  Alcotest.(check bool)
    (Printf.sprintf "multipoint better at w=4 (%.2e vs %.2e)" e_multi e_single)
    true
    (e_multi < e_single)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "ext.lyapunov",
      [
        tc "residual and symmetry" `Quick test_lyapunov_residual;
        tc "scalar gramian" `Quick test_gramian_scalar;
        tc "scalar Hankel value" `Quick test_hankel_scalar;
        tc "ladder HSV decay" `Quick test_hankel_decay_ladder;
        tc "HSVs descending" `Quick test_hankel_balanced_truncation_bound;
        tc "non-Hurwitz A is typed" `Quick test_lyapunov_non_hurwitz;
        tc "varistor controllability residual" `Quick test_lyapunov_varistor;
      ] );
    ( "ext.autoselect",
      [
        tc "suggest_k1" `Quick test_suggest_k1;
        tc "auto-selected ROM" `Slow test_autoselect_reduces;
        tc "growth stops on linear systems" `Quick test_autoselect_growth_stops;
        tc "lazy growth computes only inspected steps" `Quick
          test_autoselect_lazy_growth;
      ] );
    ( "ext.multipoint",
      [
        tc "contains both chains" `Quick test_multipoint_contains_both;
        tc "wideband H1 tracking" `Quick test_multipoint_beats_single_point_wideband;
      ] );
  ]
