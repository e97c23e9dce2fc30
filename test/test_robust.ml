(* Tests for the recovery layer: the typed error taxonomy, the fault
   injection harness, the nudge policy, the Tikhonov-regularized
   shifted solve, RKF45 recovery, and the graceful ROM degradation in
   Atmor/Autoselect.

   Every fault here is injected deterministically through
   [Robust.Faultify] so the assertions can match the emitted
   [Robust.Report] event by event. *)

open La

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let has_action report prefix =
  List.exists
    (fun (e : Robust.Report.event) ->
      String.length e.action >= String.length prefix
      && String.sub e.action 0 (String.length prefix) = prefix)
    report

let actions report = List.map (fun (e : Robust.Report.event) -> e.action) report

let check_actions name want report =
  Alcotest.(check (list string)) name want (actions report)

let check_orders name (k1, k2, k3) (o : Mor.Atmor.orders) =
  Alcotest.(check (list int)) name [ k1; k2; k3 ] [ o.k1; o.k2; o.k3 ]

let check_s0 name want got =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.17g, want %.17g)" name got want)
    true (Contract.float_equal got want)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A fixed policy: the nudge expectations below are computed from it. *)
let test_policy =
  {
    Robust.Policy.max_retries = 4;
    nudge_eps = 1e-4;
    nudge_base = 1.0;
    tikhonov_mu = 1e-8;
  }

(* Small SISO QLDAE with a known (diagonal) G1 spectrum {-1, -2, -3}
   and a weak quadratic coupling, so expansion points riding exactly on
   an eigenvalue of G1 are easy to construct. *)
let diag_qldae () =
  let n = 3 in
  let g1 = Mat.diag (Vec.of_list [ -1.0; -2.0; -3.0 ]) in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n
      (Mat.init n (n * n) (fun i j -> 0.02 /. float_of_int (i + j + 1)))
  in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  Volterra.Qldae.make ~g2 ~g1 ~b ~c ()

(* ---- taxonomy ---- *)

let test_error_rendering () =
  let loc = Robust.Error.loc ~subsystem:"volterra" ~operation:"Assoc.nsolve" in
  let e = Robust.Error.Singular_solve { loc; shift = 2.0; distance = 1e-14 } in
  Alcotest.(check string) "kind" "singular-solve" (Robust.Error.kind e);
  Alcotest.(check string)
    "location" "volterra.Assoc.nsolve"
    (Robust.Error.location_string (Robust.Error.location e));
  let s = Robust.Error.to_string e in
  Alcotest.(check bool)
    (Printf.sprintf "rendering mentions location (%s)" s)
    true
    (contains ~needle:"Assoc.nsolve" s);
  let nested =
    Robust.Error.Budget_exhausted { loc; attempts = 3; last = Some e }
  in
  Alcotest.(check string) "nested kind" "budget-exhausted"
    (Robust.Error.kind nested)

(* Every variant has its own kind string and a rendering that names
   its location, so reports and CLI messages can tell them apart. *)
let test_error_kinds_distinct () =
  let loc = Robust.Error.loc ~subsystem:"t" ~operation:"Op.run" in
  let all : Robust.Error.t list =
    [
      Singular_solve { loc; shift = Float.nan; distance = 0.0 };
      Step_failure { loc; time = 1.0; detail = "d" };
      Non_hurwitz { loc; max_re = 0.5 };
      Contract_violation { loc; detail = "d" };
      Convergence_failure { loc; detail = "d" };
      Budget_exhausted { loc; attempts = 1; last = None };
      Budget_exceeded { loc; resource = "ode-steps"; used = 4.0; limit = 3.0 };
    ]
  in
  let kinds = List.map Robust.Error.kind all in
  Alcotest.(check int) "kinds are distinct" (List.length all)
    (List.length (List.sort_uniq compare kinds));
  List.iter
    (fun e ->
      let s = Robust.Error.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "%s names its location (%s)" (Robust.Error.kind e) s)
        true
        (contains ~needle:"t.Op.run" s))
    all

let test_report_accounting () =
  let r = Robust.Report.recorder () in
  let loc = Robust.Error.loc ~subsystem:"t" ~operation:"t" in
  let err = Robust.Error.Contract_violation { loc; detail = "d" } in
  Alcotest.(check bool) "fresh recorder empty" true
    (Robust.Report.is_empty (Robust.Report.events r));
  Robust.Report.record r ~action:"nudge:1.5" err;
  let m = Robust.Report.mark r in
  Robust.Report.record r ~action:"degrade:h3" err;
  Alcotest.(check int) "two events" 2
    (Robust.Report.count (Robust.Report.events r));
  Alcotest.(check int) "since mark sees one" 1
    (Robust.Report.count (Robust.Report.since r m));
  Alcotest.(check bool) "degrade flag" true
    (Robust.Report.degraded (Robust.Report.events r));
  Alcotest.(check bool) "nudge alone is not degraded" false
    (Robust.Report.degraded [ { Robust.Report.error = err; action = "nudge:2" } ]);
  Alcotest.(check bool) "to_string nonempty" true
    (String.length (Robust.Report.to_string (Robust.Report.events r)) > 0)

(* ---- fault injection ---- *)

let test_faultify_kinds () =
  let base = [| 1.0; 2.0; 3.0 |] in
  let check_fault fault pred =
    let f = Robust.Faultify.make (Robust.Faultify.plan ~on_call:2 fault) in
    let first = Robust.Faultify.inject f base in
    Alcotest.(check bool)
      (Robust.Faultify.fault_name fault ^ ": call 1 untouched")
      true
      (first = base);
    let second = Robust.Faultify.inject f base in
    Alcotest.(check bool)
      (Robust.Faultify.fault_name fault ^ ": call 2 corrupted")
      true (pred second);
    Alcotest.(check bool)
      (Robust.Faultify.fault_name fault ^ ": input not mutated")
      true
      (base = [| 1.0; 2.0; 3.0 |]);
    let third = Robust.Faultify.inject f base in
    Alcotest.(check bool)
      (Robust.Faultify.fault_name fault ^ ": call 3 clean (no persist)")
      true (third = base);
    Alcotest.(check int) "calls counted" 3 (Robust.Faultify.calls f);
    Alcotest.(check int) "fired once" 1 (Robust.Faultify.fired f)
  in
  check_fault Robust.Faultify.Nan (fun x -> Float.is_nan x.(0));
  check_fault Robust.Faultify.Inf (fun x ->
      Float.equal x.(0) Float.infinity);
  check_fault Robust.Faultify.Zero (fun x -> Array.for_all Contract.is_zero x);
  check_fault (Robust.Faultify.Perturb 0.5) (fun x ->
      Float.abs (x.(0) -. 1.5) < 1e-12 && Float.abs (x.(2) -. 4.5) < 1e-12);
  (* persistence *)
  let f =
    Robust.Faultify.make
      (Robust.Faultify.plan ~on_call:2 ~persist:true Robust.Faultify.Nan)
  in
  ignore (Robust.Faultify.inject f base);
  ignore (Robust.Faultify.inject f base);
  let later = Robust.Faultify.inject f base in
  Alcotest.(check bool) "persistent fault keeps firing" true
    (Float.is_nan later.(0));
  Alcotest.(check int) "persistent fired twice" 2 (Robust.Faultify.fired f)

(* ---- policy ---- *)

let test_nudge_sequence () =
  let cands = Robust.Policy.nudges test_policy 2.0 in
  Alcotest.(check int) "1 + max_retries candidates" 5 (List.length cands);
  let expected =
    [ 2.0; 2.0 *. 1.0001; 2.0 *. 1.0002; 2.0 *. 1.0004; 2.0 *. 1.0008 ]
  in
  List.iter2
    (fun got want -> check_small "nudge candidate" (Float.abs (got -. want)) 1e-12)
    cands expected;
  (* s0 = 0 cannot be nudged multiplicatively: absolute steps *)
  let zero = Robust.Policy.nudges test_policy 0.0 in
  Alcotest.(check bool) "zero start kept" true (Contract.is_zero (List.hd zero));
  Alcotest.(check bool) "absolute nudges leave zero" true
    (List.for_all (fun c -> c > 0.0) (List.tl zero));
  Alcotest.(check int) "none has a single candidate" 1
    (List.length (Robust.Policy.nudges Robust.Policy.none 7.0));
  (* determinism *)
  Alcotest.(check bool) "sequence is deterministic" true
    (Robust.Policy.nudges test_policy 2.0 = cands)

let test_walk_nudges () =
  let loc = Robust.Error.loc ~subsystem:"test" ~operation:"walk" in
  let err d = Robust.Error.Contract_violation { loc; detail = d } in
  let classify = function Robust.Error.Error e -> Some e | _ -> None in
  let walk outcomes =
    let r = Robust.Report.recorder () in
    let res =
      Robust.Policy.walk_nudges ~recorder:r ~classify
        (List.mapi (fun i o -> (float_of_int (i + 1), o)) outcomes)
    in
    (res, Robust.Report.events r)
  in
  (* a failure, a recovered candidate, a failure: the recovered one is
     accepted once the list runs out; the raised failure is classified *)
  (match
     walk
       [
         (fun () -> Robust.Error.raise_error (err "a"));
         (fun () -> Robust.Policy.Recovered ("v", err "b"));
         (fun () -> Robust.Policy.Failed (err "c"));
       ]
   with
  | Ok (s0, v), events ->
    check_s0 "recovered candidate accepted" 2.0 s0;
    Alcotest.(check string) "its value" "v" v;
    check_actions "nudge then accept-fallback" [ "nudge:2"; "accept-fallback" ]
      events;
    Alcotest.(check (list string)) "events carry their errors"
      [ Robust.Error.to_string (err "a"); Robust.Error.to_string (err "b") ]
      (List.map
         (fun (e : Robust.Report.event) -> Robust.Error.to_string e.error)
         events)
  | Error _, _ -> Alcotest.fail "recovered candidate not accepted");
  (* every candidate fails *)
  (match
     walk
       (List.map
          (fun d () -> Robust.Policy.Failed (err d))
          [ "a"; "b"; "c" ])
   with
  | Ok _, _ -> Alcotest.fail "all-failed walk accepted a candidate"
  | Error (attempts, last), events ->
    Alcotest.(check int) "three attempts" 3 attempts;
    Alcotest.(check (option string)) "last failure kept"
      (Some (Robust.Error.to_string (err "c")))
      (Option.map Robust.Error.to_string last);
    check_actions "one nudge per next candidate" [ "nudge:2"; "nudge:3" ] events);
  (* a clean first candidate wins at once, records nothing and leaves
     the rest untried *)
  let tried = ref 0 in
  (match
     walk
       [
         (fun () -> incr tried; Robust.Policy.Clean "w");
         (fun () -> incr tried; Robust.Policy.Failed (err "x"));
       ]
   with
  | Ok (s0, v), events ->
    check_s0 "first candidate" 1.0 s0;
    Alcotest.(check string) "its value" "w" v;
    check_actions "nothing recorded" [] events;
    Alcotest.(check int) "one candidate tried" 1 !tried
  | Error _, _ -> Alcotest.fail "clean candidate rejected");
  (* foreign exceptions are not the walk's business *)
  Alcotest.(check bool) "unclassified exception propagates" true
    (match walk [ (fun () -> raise Not_found) ] with
    | _ -> false
    | exception Not_found -> true)

(* ---- Tikhonov-regularized shifted solves ---- *)

let test_ksolve_resonant_shift () =
  (* G = diag(-1, -2): the resolvent (k = 1) has poles {-1, -2}, the
     k = 2 Kronecker sum {-2, -3, -4}. A sigma riding a pole exactly:
     the plain solve must refuse with Near_singular at the pole
     distance, the Tikhonov variant must stay finite. *)
  let ks = Ksolve.prepare (Mat.diag (Vec.of_list [ -1.0; -2.0 ])) in
  List.iter
    (fun (k, sigma) ->
      let label = Printf.sprintf "k = %d, sigma = %g" k sigma in
      let v = Vec.constant (if k = 1 then 2 else 4) 1.0 in
      (match Ksolve.solve_shifted_real ks ~k ~sigma v with
      | _ -> Alcotest.failf "%s: resonant shift accepted" label
      | exception Ksolve.Near_singular distance ->
        check_small (label ^ ": pole distance ~ 0") distance 1e-9);
      let x = Ksolve.solve_shifted_real ~mu:1e-6 ks ~k ~sigma v in
      Alcotest.(check bool)
        (label ^ ": regularized solve finite on the pole")
        true (Vec.is_finite x);
      (* the regularized scalar inverse conj(d) / (|d|^2 + mu^2) is
         minimum-norm on the pole (its mode drops out) and within
         O(mu^2) of the plain solve off it *)
      if k = 1 then begin
        check_small (label ^ ": pole mode dropped") (Float.abs x.(0)) 1e-9;
        check_small (label ^ ": regular mode solved")
          (Float.abs (x.(1) -. 1.0)) 1e-9;
        let plain = Ksolve.solve_shifted_real ks ~k ~sigma:0.5 v in
        let reg = Ksolve.solve_shifted_real ~mu:1e-6 ks ~k ~sigma:0.5 v in
        check_small (label ^ ": off the pole the retry agrees")
          (Vec.dist2 plain reg) 1e-10
      end)
    [ (1, -1.0); (2, -3.0) ];
  (* A complex pair: G = R blockdiag([-1 2; -2 -1], -4) Rᵀ has a 2x2
     block in its real Schur form and real poles only where the pair's
     sum is real, -2 (k = 2) and -6 (k = 3). The regularized solve is
     finite there, and since T is block diagonal it is the whole
     operator's Tikhonov solution: x solves (AᵀA + mu² I) x = Aᵀ v for
     A = sigma I - ⊕^k G. Off the poles it is within O(mu²) of the plain
     solve. *)
  let c = cos 0.4 and s = sin 0.4 in
  let r = Mat.of_list [ [ c; -.s; 0.0 ]; [ s; c; 0.0 ]; [ 0.0; 0.0; 1.0 ] ] in
  let g =
    Mat.mul r
      (Mat.mul (Mat.of_list [ [ -1.0; 2.0; 0.0 ]; [ -2.0; -1.0; 0.0 ]; [ 0.0; 0.0; -4.0 ] ])
         (Mat.transpose r))
  in
  let ks = Ksolve.prepare g in
  let u = Ksolve.real_unitary ks in
  Alcotest.(check (list (pair int int))) "one 2x2 block" [ (0, 2); (2, 3) ]
    (Array.to_list (Schur.blocks (Ksolve.schur ks)));
  let mu = 1e-3 in
  let normal_residual ~k ~sigma v x =
    let len = Array.length v in
    let a =
      Mat.of_cols
        (List.init len (fun j -> Ksolve.apply_shifted ~g ~k ~sigma (Vec.basis len j)))
    in
    let lhs = Mat.mul_vec_transpose a (Mat.mul_vec a x) in
    Vec.axpy ~alpha:(mu *. mu) x lhs;
    let atv = Mat.mul_vec_transpose a v in
    Vec.dist2 lhs atv /. ((Mat.norm_fro a ** 2.0 *. Vec.norm2 x) +. Vec.norm2 atv)
  in
  (* sym³ of three vectors: the data of the symmetric kernel *)
  let sym3 =
    let b = [| Vec.of_list [ 1.0; 0.5; -0.3 ]; Vec.of_list [ 0.2; -1.0; 0.7 ]; Vec.of_list [ 0.4; 0.1; 1.0 ] |] in
    let q = Vec.create 27 in
    List.iter
      (fun (i, j, l) -> Vec.axpy ~alpha:(1.0 /. 6.0) (Kron.vec (Kron.vec b.(i) b.(j)) b.(l)) q)
      [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (1, 2, 0); (2, 0, 1); (2, 1, 0) ];
    q
  in
  let through_sym3 ?mu ~sigma v =
    let w =
      List.fold_left
        (fun w m -> Ksolve.mode_mul_real ~n:3 ~k:3 ~m ~transpose:true u w)
        v [ 0; 1; 2 ]
    in
    List.fold_left
      (fun x m -> Ksolve.mode_mul_real ~n:3 ~k:3 ~m u x)
      (Ksolve.tri_solve_sym3_real ?mu ks ~sigma w)
      [ 0; 1; 2 ]
  in
  List.iter
    (fun (label, k, sigma, pole, tol, solve) ->
      let label = Printf.sprintf "2x2 block, %s, sigma = %g" label sigma in
      let v =
        if k = 3 then sym3 else Vec.init (if k = 1 then 3 else 9) (fun i -> 1.0 +. (0.1 *. float_of_int i))
      in
      if pole then
        (match solve ?mu:None ~sigma v with
        | _ -> Alcotest.failf "%s: resonant shift accepted" label
        | exception Ksolve.Near_singular distance ->
          check_small (label ^ ": pole distance ~ 0") distance 1e-9);
      let x = solve ?mu:(Some mu) ~sigma v in
      Alcotest.(check bool) (label ^ ": regularized solve finite") true (Vec.is_finite x);
      check_small (label ^ ": normal equations") (normal_residual ~k ~sigma v x) tol;
      let plain = solve ?mu:None ~sigma:0.5 v in
      check_small (label ^ ": off the pole within O(mu²)")
        (Vec.dist2 (solve ?mu:(Some mu) ~sigma:0.5 v) plain /. Vec.norm2 plain)
        (10.0 *. mu *. mu))
    [
      (* k = 1 has no real pole: -1 is the pair's real part *)
      ("k = 1", 1, -1.0, false, 1e-13, fun ?mu ~sigma v -> Ksolve.solve_shifted_real ?mu ks ~k:1 ~sigma v);
      ("k = 2", 2, -2.0, true, 1e-13, fun ?mu ~sigma v -> Ksolve.solve_shifted_real ?mu ks ~k:2 ~sigma v);
      ("k = 3", 3, -6.0, true, 1e-13, fun ?mu ~sigma v -> Ksolve.solve_shifted_real ?mu ks ~k:3 ~sigma v);
      (* the symmetric kernel copies each sorted tuple's solution to
         its permutations rather than solving their own systems, so its
         residual there is the forward error of a system of condition
         ‖A‖²/mu² ≈ 1e8: about 1e8·ε *)
      ("sym3", 3, -6.0, true, 1e-10, through_sym3);
    ];
  check_small "2x2 block, sym3 = k = 3 solve on the pole"
    (Vec.dist2 (through_sym3 ~mu ~sigma:(-6.0) sym3)
       (Ksolve.solve_shifted_real ~mu ks ~k:3 ~sigma:(-6.0) sym3)
    /. Vec.norm2 sym3)
    1e-8

(* A clean expansion point: the resolvent chain (s0 I - G1) m_j = m_{j-1}
   holds to roundoff and the engine records nothing. *)
let test_resolvent_clean () =
  let q = diag_qldae () in
  let r = Robust.Report.recorder () in
  let eng = Volterra.Assoc.create ~recorder:r ~policy:test_policy ~s0:0.5 q in
  let apply x = Ksolve.apply_shifted ~g:q.Volterra.Qldae.g1 ~k:1 ~sigma:0.5 x in
  (match Volterra.Assoc.h1_moments eng ~k:2 with
  | [ m0; m1 ] ->
    check_small "(s0 I - G1) m0 = b"
      (Vec.dist2 (apply m0) (Volterra.Qldae.b_col q 0))
      1e-12;
    check_small "(s0 I - G1) m1 = m0" (Vec.dist2 (apply m1) m0) 1e-12
  | ms -> Alcotest.failf "expected 2 moments, got %d" (List.length ms));
  Alcotest.(check bool) "clean solves record nothing" true
    (Robust.Report.is_empty (Robust.Report.events r))

(* s0 on an eigenvalue of G1: each resolvent solve retries once with
   the Tikhonov inverse, recorded as a located singular solve, and the
   moments stay finite with the pole's mode dropped. *)
let test_resolvent_pole_retries () =
  let q = diag_qldae () in
  let r = Robust.Report.recorder () in
  let eng = Volterra.Assoc.create ~recorder:r ~policy:test_policy ~s0:(-1.0) q in
  let ms = Volterra.Assoc.h1_moments eng ~k:2 in
  Alcotest.(check bool) "moments finite" true (List.for_all Vec.is_finite ms);
  List.iteri
    (fun j m ->
      check_small (Printf.sprintf "m%d: pole mode dropped" j) (Float.abs m.(0)) 1e-6)
    ms;
  let events = Robust.Report.events r in
  check_actions "one retry per solve"
    [ "fallback:tikhonov"; "fallback:tikhonov" ] events;
  List.iter
    (fun (e : Robust.Report.event) ->
      match e.error with
      | Robust.Error.Singular_solve { loc; shift; distance } ->
        Alcotest.(check string) "located at the engine" "volterra.Assoc.nsolve"
          (Robust.Error.location_string loc);
        check_s0 "shift is s0" (-1.0) shift;
        check_small "on the pole" distance 1e-9
      | e -> Alcotest.failf "unexpected error %s" (Robust.Error.to_string e))
    events

(* The engine's fault hook sits on the resolvent output: the second
   solve's moment is corrupted as scheduled and the first is not. Read
   off the raw series, ahead of h1_moments' VMOR_CHECKS finiteness
   sweep. *)
let test_resolvent_fault_hook () =
  let q = diag_qldae () in
  let moments ?fault () =
    match
      Volterra.Assoc.series (Volterra.Assoc.create ?fault ~s0:0.5 q) ~order:1
    with
    | [ s ] -> List.of_seq (Seq.take 2 s)
    | l -> Alcotest.failf "expected one H1 series, got %d" (List.length l)
  in
  let clean = moments () in
  List.iter
    (fun (fault, pred) ->
      let name = Robust.Faultify.fault_name fault in
      match moments ~fault:(Robust.Faultify.plan ~on_call:2 fault) () with
      | [ m0; m1 ] ->
        Alcotest.(check bool) (name ^ ": first solve untouched") true
          (m0 = List.nth clean 0);
        Alcotest.(check bool) (name ^ ": second solve corrupted") true
          (pred (List.nth clean 1) m1)
      | ms -> Alcotest.failf "%s: expected 2 moments, got %d" name (List.length ms))
    [
      (Robust.Faultify.Nan, fun _ x -> Float.is_nan x.(0));
      (Robust.Faultify.Inf, fun _ x -> Float.equal x.(0) Float.infinity);
      (Robust.Faultify.Zero, fun _ x -> Array.for_all Contract.is_zero x);
      ( Robust.Faultify.Perturb 0.5,
        fun c x -> Vec.dist2 x (Vec.scale 1.5 c) <= 1e-15 *. Vec.norm2 c );
    ]

(* ---- transient recovery ---- *)

let decay =
  {
    Ode.Types.dim = 1;
    rhs = (fun _ x -> Vec.of_list [ -.x.(0) ]);
    jac = Some (fun _ _ -> Mat.of_list [ [ -1.0 ] ]);
  }

let test_rkf45_transient_nan_recovers () =
  (* One NaN mid-attempt: the step is rejected and halved, and the
     integration still matches exp(-t). *)
  let f = Robust.Faultify.make (Robust.Faultify.plan ~on_call:5 Robust.Faultify.Nan) in
  let sys = { decay with Ode.Types.rhs = Robust.Faultify.wrap2 f decay.Ode.Types.rhs } in
  let r = Robust.Report.recorder () in
  let sol =
    Ode.Rkf45.integrate sys ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
      ~recorder:r ~samples:11 ()
  in
  Alcotest.(check int) "fault fired" 1 (Robust.Faultify.fired f);
  check_small "still accurate"
    (Float.abs (sol.Ode.Types.states.(10).(0) -. Float.exp (-1.0)))
    1e-4;
  Alcotest.(check bool) "halved-step recovery recorded" true
    (has_action (Robust.Report.events r) "halve-step");
  Alcotest.(check bool) "the poisoned attempt was rejected" true
    (sol.Ode.Types.stats.Ode.Types.rejected >= 1)

let test_rkf45_persistent_nan_fails_typed () =
  let f =
    Robust.Faultify.make (Robust.Faultify.plan ~persist:true Robust.Faultify.Nan)
  in
  let sys = { decay with Ode.Types.rhs = Robust.Faultify.wrap2 f decay.Ode.Types.rhs } in
  let r = Robust.Report.recorder () in
  (match
     Ode.Rkf45.integrate sys ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
       ~recorder:r ~samples:3 ()
   with
  | _ -> Alcotest.fail "persistent NaN rhs must not integrate"
  | exception Ode.Types.Step_failure _ -> ());
  Alcotest.(check bool) "failure recorded as exhausted" true
    (has_action (Robust.Report.events r) "exhausted")

let test_rkf45_step_budget () =
  match
    Ode.Rkf45.integrate decay ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_list [ 1.0 ])
      ~max_steps:2 ~samples:3 ()
  with
  | _ -> Alcotest.fail "2-step budget cannot cover the span"
  | exception Ode.Types.Step_failure _ -> ()

(* ---- graceful ROM degradation ---- *)

let test_atmor_resonant_s0_nudges () =
  (* s0 exactly on an eigenvalue of G1: (s0 I - G1) is singular, the
     first candidate cannot be clean, and the nudge sequence must walk
     off the pole. The run completes with a ROM plus a non-empty
     report. *)
  let q = diag_qldae () in
  let res =
    Mor.Atmor.reduce ~policy:test_policy ~s0:(-1.0)
      ~orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 0 }
      q
  in
  Alcotest.(check bool) "a ROM came back" true (Mor.Atmor.order res >= 1);
  Alcotest.(check bool) "basis finite" true
    (Vec.is_finite (Mat.data res.Mor.Atmor.basis));
  check_s0 "nudged to the second candidate"
    (List.nth (Robust.Policy.nudges test_policy (-1.0)) 1)
    res.Mor.Atmor.s0;
  check_orders "orders kept" (2, 1, 0) res.Mor.Atmor.orders;
  (* Each of the pole candidate's three resolvent solves (two H1 steps,
     one H2 step) retries once with the Tikhonov-regularized inverse, so
     the pole is a recovered candidate and the clean nudge beats it —
     the same story with and without VMOR_CHECKS. *)
  check_actions "report tells the story"
    [ "fallback:tikhonov"; "fallback:tikhonov"; "fallback:tikhonov" ]
    res.Mor.Atmor.degradation

(* With tikhonov_mu = 0 the pole candidate fails outright instead of
   recovering: the walk records one nudge and the next candidate is
   clean, at the same orders. *)
let test_atmor_pole_without_tikhonov_nudges () =
  let q = diag_qldae () in
  let policy = { test_policy with Robust.Policy.tikhonov_mu = 0.0 } in
  let res =
    Mor.Atmor.reduce ~policy ~s0:(-1.0)
      ~orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 0 }
      q
  in
  check_s0 "second nudge candidate"
    (List.nth (Robust.Policy.nudges policy (-1.0)) 1)
    res.Mor.Atmor.s0;
  check_orders "orders kept" (2, 1, 0) res.Mor.Atmor.orders;
  check_actions "the failed pole, then the nudge" [ "nudge:-1.0001" ]
    res.Mor.Atmor.degradation

(* fig3's line has a singular G1, whose exact zero eigenvalues the
   Schur form returns as rounding-sized nonzeros (|lambda| ~ 1e-16 ..
   1e-14 against max |lambda| ~ 158). A user s0 = 0 sits on them: every
   resolvent solve must still be flagged and retried, and the walk must
   settle on the first clean nudge. *)
let test_atmor_singular_g1_at_zero () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_current ~stages:8 ()) in
  let res =
    Mor.Atmor.reduce ~s0:0.0 ~orders:{ Mor.Atmor.k1 = 6; k2 = 0; k3 = 0 } q
  in
  check_s0 "nudged off the pole"
    (List.nth (Robust.Policy.nudges (Robust.Policy.default ()) 0.0) 1)
    res.Mor.Atmor.s0;
  check_orders "orders kept" (6, 0, 0) res.Mor.Atmor.orders;
  check_actions "one Tikhonov retry per resolvent solve at the pole"
    (List.init 6 (fun _ -> "fallback:tikhonov"))
    res.Mor.Atmor.degradation

(* The nudge sequence of test_policy from s0 = 0 (the default point of
   diag_qldae), as recorded after each failed candidate. *)
let zero_nudges =
  [ "nudge:0.0001"; "nudge:0.0002"; "nudge:0.0004"; "nudge:0.0008" ]

let test_atmor_h3_degrades () =
  (* Persistent NaN from the 4th resolvent solve: H1 (2 solves) and H2
     (1 solve) survive, every H3 attempt is poisoned, so the engine
     must drop to (2, 1, 0) and say so. *)
  let q = diag_qldae () in
  let res =
    Mor.Atmor.reduce ~policy:test_policy
      ~fault:(Robust.Faultify.plan ~on_call:4 ~persist:true Robust.Faultify.Nan)
      ~orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 1 }
      q
  in
  check_orders "H3 dropped, H1 and H2 kept" (2, 1, 0) res.Mor.Atmor.orders;
  check_s0 "first candidate at the kept level" 0.0 res.Mor.Atmor.s0;
  check_actions "every nudge, then degrade:h3"
    (zero_nudges @ [ "degrade:h3" ])
    res.Mor.Atmor.degradation;
  Alcotest.(check bool) "basis finite" true
    (Vec.is_finite (Mat.data res.Mor.Atmor.basis))

let test_atmor_h3_then_h2_degrade () =
  (* Poison from the 3rd solve on: H2's first moment is corrupted, so
     the ladder must walk (2,1,1) -> (2,1,0) -> (2,0,0). *)
  let q = diag_qldae () in
  let res =
    Mor.Atmor.reduce ~policy:test_policy
      ~fault:(Robust.Faultify.plan ~on_call:3 ~persist:true Robust.Faultify.Nan)
      ~orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 1 }
      q
  in
  check_orders "H3 and H2 dropped, H1 kept" (2, 0, 0) res.Mor.Atmor.orders;
  check_s0 "first candidate at the kept level" 0.0 res.Mor.Atmor.s0;
  check_actions "nudges per level, then degrade:h3 and degrade:h2"
    ((zero_nudges @ [ "degrade:h3" ]) @ zero_nudges @ [ "degrade:h2" ])
    res.Mor.Atmor.degradation;
  Alcotest.(check bool) "H1-only ROM is usable" true
    (Mor.Atmor.order res >= 1 && Vec.is_finite (Mat.data res.Mor.Atmor.basis))

let test_atmor_total_failure_is_typed () =
  (* Every solve poisoned: no (orders, point) combination can work and
     the typed budget error must escape — not a raw exception. *)
  let q = diag_qldae () in
  match
    Mor.Atmor.reduce ~policy:test_policy
      ~fault:(Robust.Faultify.plan ~persist:true Robust.Faultify.Nan)
      ~orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 0 }
      q
  with
  | _ -> Alcotest.fail "fully poisoned engine produced a ROM"
  | exception Robust.Error.Error (Robust.Error.Budget_exhausted { attempts; last; _ })
    ->
    Alcotest.(check bool) "attempts counted" true (attempts >= 1);
    Alcotest.(check bool) "last failure kept" true (last <> None)

let test_atmor_clean_run_empty_report () =
  let q = diag_qldae () in
  let res =
    Mor.Atmor.reduce ~policy:test_policy
      ~orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 1 }
      q
  in
  Alcotest.(check bool) "clean run, empty report" true
    (Robust.Report.is_empty res.Mor.Atmor.degradation);
  Alcotest.(check int) "orders honored" 1 res.Mor.Atmor.orders.Mor.Atmor.k3

let test_autoselect_degrades () =
  (* Probing is fault-free (the plan arms on the growth engine); the
     persistent fault from call 3 kills the H2 and H3 series, which
     must be dropped to zero with the H1 basis still delivered. *)
  let q = diag_qldae () in
  let sel =
    Mor.Autoselect.reduce ~policy:test_policy
      ~fault:(Robust.Faultify.plan ~on_call:3 ~persist:true Robust.Faultify.Nan)
      ~max_orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 1 }
      q
  in
  check_orders "H2 and H3 dropped, H1 kept" (2, 0, 0) sel.Mor.Autoselect.chosen;
  check_s0 "clean probe at the requested point" 0.0
    sel.Mor.Autoselect.result.Mor.Atmor.s0;
  check_actions "degrade:h2 then degrade:h3" [ "degrade:h2"; "degrade:h3" ]
    sel.Mor.Autoselect.result.Mor.Atmor.degradation;
  Alcotest.(check bool) "basis finite" true
    (Vec.is_finite (Mat.data sel.Mor.Autoselect.result.Mor.Atmor.basis))

let test_autoselect_rolls_back_failed_block () =
  (* Growth calls 1-2 are the H1 steps and call 3 the H2 step 0, whose
     moment enters the basis; a NaN on call 4, the H2 step 1, drops the
     block. The basis must come back without the step-0 vector: bit-equal
     to a run that never grows H2. *)
  let q = diag_qldae () in
  let sel =
    Mor.Autoselect.reduce ~policy:test_policy
      ~fault:(Robust.Faultify.plan ~on_call:4 Robust.Faultify.Nan)
      ~max_orders:{ Mor.Atmor.k1 = 2; k2 = 2; k3 = 0 }
      q
  in
  let h1_only =
    Mor.Autoselect.reduce ~policy:test_policy
      ~max_orders:{ Mor.Atmor.k1 = 2; k2 = 0; k3 = 0 }
      q
  in
  let r = sel.Mor.Autoselect.result and r1 = h1_only.Mor.Autoselect.result in
  check_orders "H2 dropped" (2, 0, 0) sel.Mor.Autoselect.chosen;
  check_actions "one degrade:h2" [ "degrade:h2" ] r.Mor.Atmor.degradation;
  Alcotest.(check int) "raw moments: H1 only" 2 r.Mor.Atmor.raw_moments;
  Alcotest.(check int) "ROM order: H1 only" 2 (Mor.Atmor.order r);
  Alcotest.(check bool) "basis bit-equal to the H1-only run" true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Mat.data r.Mor.Atmor.basis) (Mat.data r1.Mor.Atmor.basis))

let test_autoselect_probe_nudges () =
  (* s0 exactly on an eigenvalue of G1: the H1 probe at the pole cannot
     be clean, so the probe walk settles on the first nudge. *)
  let q = diag_qldae () in
  let sel =
    Mor.Autoselect.reduce ~policy:test_policy ~s0:(-1.0)
      ~max_orders:{ Mor.Atmor.k1 = 2; k2 = 1; k3 = 1 }
      q
  in
  check_s0 "second nudge candidate"
    (List.nth (Robust.Policy.nudges test_policy (-1.0)) 1)
    sel.Mor.Autoselect.result.Mor.Atmor.s0;
  check_orders "orders grown" (2, 1, 0) sel.Mor.Autoselect.chosen;
  check_actions "the pole probe's one Tikhonov retry"
    [ "fallback:tikhonov" ] sel.Mor.Autoselect.result.Mor.Atmor.degradation

let test_balanced_try_reduce_non_hurwitz () =
  let g1 = Mat.diag (Vec.of_list [ 0.5; -2.0 ]) in
  let b = Mat.init 2 1 (fun _ _ -> 1.0) in
  let c = Mat.init 1 2 (fun _ _ -> 1.0) in
  let q = Volterra.Qldae.make ~g1 ~b ~c () in
  match Mor.Balanced.try_reduce q with
  | Ok _ -> Alcotest.fail "unstable G1 accepted"
  | Error (Robust.Error.Non_hurwitz { max_re; _ }) ->
    check_small "spectral abscissa reported" (Float.abs (max_re -. 0.5)) 1e-9
  | Error e -> Alcotest.failf "unexpected error: %s" (Robust.Error.to_string e)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "robust.taxonomy",
      [
        tc "error rendering" `Quick test_error_rendering;
        tc "report accounting" `Quick test_report_accounting;
        tc "distinct kinds, located renderings" `Quick
          test_error_kinds_distinct;
      ] );
    ( "robust.faultify",
      [ tc "every fault kind, scheduling, persistence" `Quick test_faultify_kinds ]
    );
    ( "robust.policy",
      [
        tc "deterministic nudge sequence" `Quick test_nudge_sequence;
        tc "nudge walk over scripted outcomes" `Quick test_walk_nudges;
      ] );
    ( "robust.shifted-solve",
      [
        tc "resonant Kronecker shift" `Quick test_ksolve_resonant_shift;
        tc "clean resolvent records nothing" `Quick test_resolvent_clean;
        tc "resolvent on a pole retries once per solve" `Quick
          test_resolvent_pole_retries;
        tc "fault hook on the resolvent output" `Quick
          test_resolvent_fault_hook;
      ] );
    ( "robust.transient",
      [
        tc "RKF45 recovers from a transient NaN" `Quick
          test_rkf45_transient_nan_recovers;
        tc "RKF45 persistent NaN fails typed" `Quick
          test_rkf45_persistent_nan_fails_typed;
        tc "RKF45 step budget" `Quick test_rkf45_step_budget;
      ] );
    ( "robust.degradation",
      [
        tc "resonant s0 is nudged off the pole" `Quick
          test_atmor_resonant_s0_nudges;
        tc "resonant s0 without Tikhonov fails over to a nudge" `Quick
          test_atmor_pole_without_tikhonov_nudges;
        tc "s0 on a singular G1's zero eigenvalues is nudged" `Quick
          test_atmor_singular_g1_at_zero;
        tc "H3 failure degrades to (k1, k2, 0)" `Quick test_atmor_h3_degrades;
        tc "H3 then H2 degrade chain" `Quick test_atmor_h3_then_h2_degrade;
        tc "total failure raises Budget_exhausted" `Quick
          test_atmor_total_failure_is_typed;
        tc "clean run has an empty report" `Quick
          test_atmor_clean_run_empty_report;
        tc "autoselect drops failing series" `Quick test_autoselect_degrades;
        tc "autoselect rolls back a failed block" `Quick
          test_autoselect_rolls_back_failed_block;
        tc "autoselect probe walks off a pole" `Quick
          test_autoselect_probe_nudges;
        tc "balanced try_reduce types Non_hurwitz" `Quick
          test_balanced_try_reduce_non_hurwitz;
      ] );
  ]
