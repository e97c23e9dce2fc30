(* Tests for the Contract layer: the documented error format, the
   VMOR_CHECKS gating of expensive value checks, and the guards threaded
   through the la/volterra/mor boundaries. *)

open La

let rng = Random.State.make [| 0xc0; 0x117ac7 |]

(* Run [f] with the expensive value checks forced on/off, restoring the
   env-driven default afterwards. *)
let with_checks enabled f =
  Contract.set_checks (Some enabled);
  Fun.protect ~finally:(fun () -> Contract.set_checks None) f

let check_raises_invalid name expected f =
  Alcotest.check_raises name (Invalid_argument expected) (fun () ->
      ignore (f ()))

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* ---------- error message format ---------- *)

(* The documented format is "<context>: <rule> (<details>)". *)
let test_message_format () =
  check_raises_invalid "require_dims message"
    "ctx: dimension mismatch (expected 2x3, got 4x5)" (fun () ->
      Contract.require_dims "ctx" ~expected:(2, 3) ~actual:(4, 5));
  check_raises_invalid "require_len message"
    "ctx: dimension mismatch (expected length 3, got 7)" (fun () ->
      Contract.require_len "ctx" ~expected:3 ~actual:7);
  check_raises_invalid "require_square message" "ctx: not square (3x4)"
    (fun () -> Contract.require_square "ctx" (3, 4));
  check_raises_invalid "require_kron_compat message"
    "ctx: kron incompatibility (length 7 does not factor as 2x3)"
    (fun () -> Contract.require_kron_compat "ctx" ~rows:2 ~cols:3 ~len:7)

let test_shape_checks_always_on () =
  (* shape checks fire regardless of VMOR_CHECKS *)
  with_checks false (fun () ->
      Alcotest.(check bool) "require_dims off-mode" true
        (raises_invalid (fun () ->
             Contract.require_dims "ctx" ~expected:(1, 1) ~actual:(2, 2)));
      Contract.require_dims "ctx" ~expected:(2, 2) ~actual:(2, 2);
      Contract.require_same_len "ctx" 4 4;
      Alcotest.(check bool) "require_same_len off-mode" true
        (raises_invalid (fun () -> Contract.require_same_len "ctx" 4 5)))

(* ---------- VMOR_CHECKS gating ---------- *)

let test_finite_gating () =
  let bad = [| 1.0; Float.nan; 3.0 |] in
  with_checks true (fun () ->
      Alcotest.(check bool) "NaN caught when checks on" true
        (raises_invalid (fun () -> Contract.require_finite "ctx" bad));
      Alcotest.(check bool) "Inf caught when checks on" true
        (raises_invalid (fun () ->
             Contract.require_finite "ctx" [| Float.infinity |]));
      Contract.require_finite "ctx" [| 1.0; -2.0 |]);
  with_checks false (fun () ->
      (* expensive checks are skipped when gated off *)
      Contract.require_finite "ctx" bad)

let test_orthonormal_gating () =
  let not_orth = Mat.of_list [ [ 1.0; 1.0 ]; [ 0.0; 1.0 ] ] in
  with_checks true (fun () ->
      Alcotest.(check bool) "oblique basis rejected" true
        (raises_invalid (fun () ->
             Contract.require_orthonormal "ctx" ~rows:2 ~cols:2
               (Mat.data not_orth)));
      Contract.require_orthonormal "ctx" ~rows:2 ~cols:2
        (Mat.data (Mat.identity 2)));
  with_checks false (fun () ->
      Contract.require_orthonormal "ctx" ~rows:2 ~cols:2 (Mat.data not_orth))

(* ---------- contracts accept real computed bases ---------- *)

let test_orthonormal_accepts_atmor_basis () =
  with_checks true (fun () ->
      let q =
        Circuit.Models.qldae (Circuit.Models.nltl_current ~stages:8 ())
      in
      (* Atmor.finish asserts the basis contracts internally when checks
         are on; reaching the checks below means they passed. *)
      let r =
        Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } q
      in
      let v = r.Mor.Atmor.basis in
      Alcotest.(check int) "basis height" (Volterra.Qldae.dim q) (Mat.rows v);
      Alcotest.(check bool) "nonempty basis" true (Mat.cols v > 0);
      Contract.require_orthonormal "atmor basis" ~rows:(Mat.rows v)
        ~cols:(Mat.cols v) (Mat.data v))

let test_orth_mat_contract () =
  with_checks true (fun () ->
      let vs =
        List.init 5 (fun _ -> Vec.init 12 (fun _ -> Random.State.float rng 2.0))
      in
      let q = Qr.orth_mat vs in
      Alcotest.(check int) "rank kept" 5 (Mat.cols q))

(* ---------- guards at the library boundaries ---------- *)

let test_la_guards () =
  let a = Mat.identity 3 and b = Mat.identity 4 in
  Alcotest.(check bool) "Mat.add shape guard" true
    (raises_invalid (fun () -> Mat.add a b));
  Alcotest.(check bool) "Lyapunov.solve shape guard" true
    (raises_invalid (fun () -> Lyapunov.solve ~a ~q:(Mat.create 2 2)));
  let ks = Ksolve.prepare (Mat.random ~rng 3 3) in
  Alcotest.(check bool) "Ksolve.solve_shifted length guard" true
    (raises_invalid (fun () ->
         Ksolve.solve_shifted ks ~k:2 ~sigma:Complex.one
           (Cvec.of_real (Vec.create 5))));
  Alcotest.(check bool) "Qr.apply_q length guard" true
    (raises_invalid (fun () ->
         Qr.apply_q (Qr.factor (Mat.random ~rng 4 2)) (Vec.create 3)));
  Alcotest.(check bool) "Vec.blit overflow guard" true
    (raises_invalid (fun () ->
         Vec.blit ~src:(Vec.create 4) ~dst:(Vec.create 3) ~pos:1))

let test_qldae_guards () =
  let model = Circuit.Models.nltl_current ~stages:6 () in
  let q = Circuit.Models.qldae model in
  let n = Volterra.Qldae.dim q in
  Alcotest.(check bool) "project rejects wrong-height basis" true
    (raises_invalid (fun () ->
         Volterra.Qldae.project q (Mat.identity (n + 1))));
  with_checks true (fun () ->
      let bad = Mat.create n 2 in
      Mat.set bad 0 0 1.0;
      Mat.set bad 0 1 1.0;
      (* columns are parallel: not orthonormal *)
      Alcotest.(check bool) "project rejects oblique basis" true
        (raises_invalid (fun () -> Volterra.Qldae.project q bad)))

let test_atmor_guards () =
  let model = Circuit.Models.nltl_current ~stages:6 () in
  let q = Circuit.Models.qldae model in
  let orders = { Mor.Atmor.k1 = -1; k2 = 0; k3 = 0 } in
  Alcotest.(check bool) "negative moment order rejected" true
    (raises_invalid (fun () -> Mor.Atmor.reduce ~orders q));
  Alcotest.(check bool) "negative autoselect order rejected" true
    (raises_invalid (fun () -> Mor.Autoselect.reduce ~max_orders:orders q))

(* ---------- blessed comparisons ---------- *)

let test_blessed_comparisons () =
  Alcotest.(check bool) "is_zero 0.0" true (Contract.is_zero 0.0);
  Alcotest.(check bool) "is_zero -0.0" true (Contract.is_zero (-0.0));
  Alcotest.(check bool) "nonzero eps" true (Contract.nonzero epsilon_float);
  Alcotest.(check bool) "float_equal exact" true (Contract.float_equal 0.5 0.5);
  Alcotest.(check bool) "approx_eq tol" true
    (Contract.approx_eq ~tol:1e-9 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "approx_eq rejects" false
    (Contract.approx_eq ~tol:1e-15 1.0 1.1)

let suite =
  [
    ( "contracts",
      [
        Alcotest.test_case "error message format" `Quick test_message_format;
        Alcotest.test_case "shape checks always on" `Quick
          test_shape_checks_always_on;
        Alcotest.test_case "finiteness gated by VMOR_CHECKS" `Quick
          test_finite_gating;
        Alcotest.test_case "orthonormality gated by VMOR_CHECKS" `Quick
          test_orthonormal_gating;
        Alcotest.test_case "orthonormality accepts Atmor bases" `Quick
          test_orthonormal_accepts_atmor_basis;
        Alcotest.test_case "orth_mat passes its own contract" `Quick
          test_orth_mat_contract;
        Alcotest.test_case "la boundary guards" `Quick test_la_guards;
        Alcotest.test_case "qldae boundary guards" `Quick test_qldae_guards;
        Alcotest.test_case "atmor order guard" `Quick test_atmor_guards;
        Alcotest.test_case "blessed float comparisons" `Quick
          test_blessed_comparisons;
      ] );
  ]
