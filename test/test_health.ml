(* Numerical-health telemetry: condition estimators, a-posteriori
   moment residuals, trace analysis round-trips, and the bench
   regression gate. *)

open La
open Volterra

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Run [f] with an in-memory sink active, restore the null sink, and
   return (result, captured records). *)
let with_memory_sink f =
  let sink, captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      let r = f () in
      (r, captured ()))

let health_events (captured : Obs.Sink.captured) =
  List.filter_map
    (fun (e : Obs.Sink.event_record) ->
      Obs.Health.of_event ~name:e.Obs.Sink.name ~detail:e.Obs.Sink.detail)
    captured.Obs.Sink.events

let contains hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i =
    i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

(* ---- condition estimators ---- *)

let test_ksolve_cond_estimate () =
  (* diag(-1, -2): at sigma = 1 the k = 1 pole distances are 2 and 3 *)
  let a = Mat.init 2 2 (fun i j -> if i = j then -.float_of_int (i + 1) else 0.0) in
  let ks = Ksolve.prepare a in
  let sigma = { Complex.re = 1.0; im = 0.0 } in
  let c1 = Ksolve.cond_estimate ks ~k:1 ~sigma in
  Alcotest.(check (float 1e-9)) "k=1 exact ratio" 1.5 c1;
  (* k = 2 sums: -2, -3, -4 -> distances 3, 4, 5 *)
  let c2 = Ksolve.cond_estimate ks ~k:2 ~sigma in
  Alcotest.(check (float 1e-9)) "k=2 exact ratio" (5.0 /. 3.0) c2;
  (* an exact pole hit reports infinity, not an exception *)
  let at_pole = Ksolve.cond_estimate ks ~k:1 ~sigma:{ Complex.re = -1.0; im = 0.0 } in
  check_bool "pole hit is infinite" true (at_pole = Float.infinity)

let test_ksolve_k3_mixed_poles () =
  (* diag(-1, -2, -4): sigma = -7 is only the mixed sum -1 - 2 - 4, never
     a 3-fold eigenvalue, yet it is a divisor of the k = 3 solve *)
  let ks = Ksolve.prepare (Mat.diag (Vec.of_list [ -1.0; -2.0; -4.0 ])) in
  let sigma = { Complex.re = -7.0; im = 0.0 } in
  Alcotest.(check (float 0.0)) "k=3 pole distance" 0.0
    (Ksolve.min_pole_distance ks ~k:3 ~sigma);
  check_bool "k=3 pole hit is infinite" true
    (Ksolve.cond_estimate ks ~k:3 ~sigma = Float.infinity);
  check_bool "and the solve raises there" true
    (match
       Ksolve.solve_shifted ks ~k:3 ~sigma
         (Cvec.of_real (Vec.init 27 (fun _ -> 1.0)))
     with
    | _ -> false
    | exception Ksolve.Near_singular _ -> true);
  (* between the sums -7 and -8; the farthest is -1 - 1 - 1 *)
  let sigma = { Complex.re = -7.5; im = 0.0 } in
  Alcotest.(check (float 1e-12)) "k=3 distance off the pole" 0.5
    (Ksolve.min_pole_distance ks ~k:3 ~sigma);
  Alcotest.(check (float 1e-12)) "k=3 ratio over the mixed sums" 9.0
    (Ksolve.cond_estimate ks ~k:3 ~sigma)

(* An engine's first solve records one Cond per Kronecker order the
   series run through, k = 1 (the resolvent) to 3, all off the one
   Schur factorization. *)
let test_assoc_cond_records () =
  let q =
    Qldae.make
      ~g1:(Mat.diag (Vec.of_list [ -1.0; -2.0 ]))
      ~b:(Mat.init 2 1 (fun _ _ -> 1.0))
      ~c:(Mat.init 1 2 (fun _ _ -> 1.0))
      ()
  in
  let _, captured =
    with_memory_sink (fun () -> Assoc.ksolve (Assoc.create ~s0:1.0 q))
  in
  let conds =
    List.filter_map
      (function
        | Obs.Health.Cond { context; dim; cond } -> Some (context, dim, cond)
        | _ -> None)
      (health_events captured)
  in
  Alcotest.(check (list (pair string int)))
    "one record per order"
    [ ("assoc.ksum.k1", 2); ("assoc.ksum.k2", 2); ("assoc.ksum.k3", 2) ]
    (List.map (fun (c, d, _) -> (c, d)) conds);
  (* pole distances at s0 = 1: k = 1 {2, 3}, k = 2 {3, 4, 5},
     k = 3 {4, 5, 6, 7}; the event detail prints 9 digits *)
  List.iter2
    (fun (context, _, got) want ->
      Alcotest.(check (float 1e-8)) (context ^ " ratio") want got)
    conds
    [ 1.5; 5.0 /. 3.0; 7.0 /. 4.0 ]

(* ---- moment residuals ---- *)

let test_moment_residual_exact () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:4 ()) in
  let n = Qldae.dim q in
  (* identity projection: the "ROM" is the full model, so every
     residual is zero up to roundoff *)
  let rom = Qldae.project q (Mat.identity n) in
  let s0 = Assoc.s0 (Assoc.create q) in
  let side = Romdiag_side.fresh ~orders:(1, 1, 1) ~s0 q in
  let r = Mor.Romdiag.moment_residuals side ~full:q ~rom in
  let expect_tiny name = function
    | Some v -> check_bool (name ^ " residual ~ 0") true (v < 1e-8)
    | None -> Alcotest.fail (name ^ " residual missing")
  in
  expect_tiny "H1" r.Mor.Romdiag.h1;
  expect_tiny "H2" r.Mor.Romdiag.h2;
  expect_tiny "H3" r.Mor.Romdiag.h3;
  let sweep = Mor.Romdiag.freq_sweep side ~full:q ~rom in
  check_bool "sweep evaluated" true (sweep <> []);
  List.iter
    (fun (_, e) -> check_bool "sweep error ~ 0" true (e < 1e-8))
    sweep

let test_reduce_emits_health () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:6 ()) in
  let _, captured =
    with_memory_sink (fun () ->
        Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } q)
  in
  let records = health_events captured in
  let residual_ks =
    List.filter_map
      (function Obs.Health.Moment_residual { k; _ } -> Some k | _ -> None)
      records
  in
  check_bool "H1 residual emitted" true (List.mem 1 residual_ks);
  check_bool "cond estimates emitted" true
    (List.exists
       (function Obs.Health.Cond _ -> true | _ -> false)
       records);
  check_bool "freq sweep emitted" true
    (List.exists
       (function Obs.Health.Freq_error _ -> true | _ -> false)
       records)

(* Oracle for the H2/H3 residuals: both models' H_k(s0) through the
   unfolded Assoc.h2_eval / h3_eval, over the given input combinations. *)
let eval_residual ~s0 ~(full : Qldae.t) ~(rom : Qldae.t) eval combos =
  let sigma = { Complex.re = s0; im = 0.0 } in
  let out (q : Qldae.t) =
    let eng = Assoc.create ~s0 q in
    fun x -> Mat.mul_vec q.Qldae.c (Cvec.real_part (eval eng x sigma))
  in
  let out_full = out full and out_rom = out rom in
  let err2, ref2 =
    List.fold_left
      (fun (e2, r2) x ->
        let yf = out_full x in
        let d = Vec.dist2 yf (out_rom x) and r = Vec.norm2 yf in
        (e2 +. (d *. d), r2 +. (r *. r)))
      (0.0, 0.0) combos
  in
  if ref2 <= 1e-300 then None else Some (sqrt (err2 /. ref2))

(* The series-head residuals are the quantity the eval path computes.
   An H1-only ROM leaves H2/H3 unmatched, so those residuals are O(1)
   and the two paths must agree on them well above rounding. *)
let test_residuals_match_eval_oracle () =
  List.iter
    (fun (name, model) ->
      let q = Circuit.Models.qldae model in
      let r = Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 3; k2 = 0; k3 = 0 } q in
      let s0 = r.Mor.Atmor.s0 and rom = r.Mor.Atmor.rom in
      let got =
        Mor.Romdiag.moment_residuals
          (Romdiag_side.fresh ~triples_mode:`Diagonal ~orders:(1, 1, 1) ~s0 q)
          ~full:q ~rom
      in
      let m = Qldae.n_inputs q in
      let pairs =
        List.concat (List.init m (fun a -> List.init (m - a) (fun i -> (a, a + i))))
      in
      let h2 =
        eval_residual ~s0 ~full:q ~rom
          (fun e ab s -> Assoc.h2_eval e ~inputs:ab s) pairs
      and h3 =
        eval_residual ~s0 ~full:q ~rom
          (fun e abc s -> Assoc.h3_eval e ~inputs:abc s)
          (List.init m (fun a -> (a, a, a)))
      in
      let agree what want got =
        match (want, got) with
        | None, None -> ()
        | Some w, Some g ->
          if Float.abs (g -. w) > 1e-9 *. w then
            Alcotest.failf "%s %s: series %.12g, eval %.12g" name what g w
        | _ -> Alcotest.failf "%s %s: present on one path only" name what
      in
      agree "H2" h2 got.Mor.Romdiag.h2;
      agree "H3" h3 got.Mor.Romdiag.h3;
      match got.Mor.Romdiag.h1 with
      | Some v when v < 1e-10 -> ()
      | _ -> Alcotest.failf "%s H1 residual not below 1e-10" name)
    [
      ("nltl-v", Circuit.Models.nltl_voltage ~stages:5 ());
      ("nltl-i", Circuit.Models.nltl_current ~stages:5 ());
      ("rf", Circuit.Models.rf_receiver ~lna_stages:4 ~pa_stages:4 ());
      ("varistor", Circuit.Models.varistor ~sections:4 ());
    ]

(* Only the orders the reduction realized are checked. *)
let test_residuals_follow_orders () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:6 ()) in
  let residual_ks orders =
    let _, captured = with_memory_sink (fun () -> Mor.Atmor.reduce ~orders q) in
    List.filter_map
      (function Obs.Health.Moment_residual { k; _ } -> Some k | _ -> None)
      (health_events captured)
  in
  Alcotest.(check (list int)) "k3 = 0: no H3 residual" [ 1; 2 ]
    (residual_ks { Mor.Atmor.k1 = 6; k2 = 3; k3 = 0 });
  Alcotest.(check (list int)) "(6,3,2): all three" [ 1; 2; 3 ]
    (residual_ks { Mor.Atmor.k1 = 6; k2 = 3; k3 = 2 })

(* The residuals a traced reduction emitted on its own series heads
   agree, within [tol], with those of a fresh engine's heads at the
   orders it realized. The health gauges hold the emitted residuals
   unrounded. *)
let check_against_fresh ~name ~tol q (r : Mor.Atmor.result) captured =
  let emitted =
    List.filter_map
      (function Obs.Health.Moment_residual { k; _ } -> Some k | _ -> None)
      (health_events captured)
  in
  check_bool (name ^ ": H1 checked") true (List.mem 1 emitted);
  let gauge k =
    if List.mem k emitted then
      List.assoc_opt
        (Printf.sprintf "health.moment_residual.h%d" k)
        (Obs.Metrics.gauges ())
    else None
  in
  let { Mor.Atmor.k1; k2; k3 } = r.Mor.Atmor.orders in
  let fresh =
    Mor.Romdiag.moment_residuals
      (Romdiag_side.fresh ~orders:(k1, k2, k3) ~s0:r.Mor.Atmor.s0 q)
      ~full:q ~rom:r.Mor.Atmor.rom
  in
  List.iter
    (fun (k, want) ->
      match (want, gauge k) with
      | None, None -> ()
      | Some w, Some g when Float.abs (g -. w) <= tol -> ()
      | w, g ->
        let show = Option.fold ~none:"none" ~some:(Printf.sprintf "%.17g") in
        Alcotest.failf "%s H%d: own heads %s, fresh engine %s" name k (show g)
          (show w))
    [ (1, fresh.Mor.Romdiag.h1); (2, fresh.Mor.Romdiag.h2); (3, fresh.Mor.Romdiag.h3) ]

(* Every k-th moment of Atmor.reduce is the head a fresh engine steps:
   the residuals agree bit for bit. *)
let test_own_heads_match_fresh_engine () =
  List.iter
    (fun (name, model) ->
      let q = Circuit.Models.qldae model in
      let r, captured =
        with_memory_sink (fun () ->
            Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 3; k3 = 2 } q)
      in
      check_against_fresh ~name ~tol:0.0 q r captured)
    [
      ("nltl-v", Circuit.Models.nltl_voltage ~stages:5 ());
      ("nltl-i", Circuit.Models.nltl_current ~stages:5 ());
      ("varistor", Circuit.Models.varistor ~sections:4 ());
    ]

(* The eq.-18 ablation hands over H2(s0) as the sum of its two branch
   heads, which equals the Assoc head up to rounding. *)
let test_sylvester_h2_head () =
  let q = Test_mor.random_qldae ~n:7 () in
  let r, captured =
    with_memory_sink (fun () ->
        Mor.Atmor.reduce_sylvester ~s0:0.6
          ~orders:{ Mor.Atmor.k1 = 3; k2 = 3; k3 = 1 } q)
  in
  check_against_fresh ~name:"sylvester" ~tol:1e-9 q r captured

(* NORM steps no associated-transform H2/H3 series, so a traced NORM
   reduce checks H1 only, plus the sweep. *)
let test_norm_checks_h1_only () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:6 ()) in
  let _, captured =
    with_memory_sink (fun () ->
        Mor.Norm.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 2; k3 = 1 } q)
  in
  let records = health_events captured in
  Alcotest.(check (list int)) "H1 residual only" [ 1 ]
    (List.filter_map
       (function Obs.Health.Moment_residual { k; _ } -> Some k | _ -> None)
       records);
  check_int "four sweep points" 4
    (List.length
       (List.filter
          (function Obs.Health.Freq_error _ -> true | _ -> false)
          records))

(* ---- trace round-trip, report and diff ---- *)

let make_trace path =
  Obs.Sink.set (Obs.Sink.jsonl_file path);
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.with_ ~name:"inner" (fun () ->
              Obs.Metrics.incr Obs.Metrics.Matvec);
          Obs.Health.emit
            (Obs.Health.Cond { context = "test"; dim = 3; cond = 1.25e13 });
          Obs.Health.emit
            (Obs.Health.Moment_residual { k = 2; s0 = 1.0; residual = 3e-9 })))

let test_trace_roundtrip () =
  let path = Filename.temp_file "vmor_health" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      make_trace path;
      let t = Obs.Trace.load path in
      check_int "two spans" 2 (List.length t.Obs.Trace.spans);
      check_int "two health events + metrics-free inner" 2
        (List.length (Obs.Trace.health_records t));
      (* nesting: outer is the single root and holds inner *)
      (match t.Obs.Trace.roots with
      | [ Obs.Trace.Node (outer, children) ] ->
        Alcotest.(check string) "root" "outer" outer.Obs.Sink.name;
        check_bool "inner nested under outer" true
          (List.exists
             (function
               | Obs.Trace.Node (s, _) -> String.equal s.Obs.Sink.name "inner"
               | Obs.Trace.Leaf _ -> false)
             children)
      | _ -> Alcotest.fail "expected a single root span");
      let summary = Obs.Trace.summarize t in
      (match summary.Obs.Trace.max_cond with
      | [ (ctx, dim, cond) ] ->
        Alcotest.(check string) "cond context" "test" ctx;
        check_int "cond dimension" 3 dim;
        Alcotest.(check (float 0.0)) "cond survives re-parse" 1.25e13 cond
      | _ -> Alcotest.fail "expected one max_cond entry");
      (match summary.Obs.Trace.residuals with
      | [ (k, s0, residual) ] ->
        check_int "residual order" 2 k;
        Alcotest.(check (float 0.0)) "residual s0" 1.0 s0;
        Alcotest.(check (float 0.0)) "residual survives re-parse" 3e-9
          residual
      | _ -> Alcotest.fail "expected one moment residual");
      check_bool "tree mentions both spans" true
        (let tree = Obs.Trace.render_tree t in
         contains tree "outer" && contains tree "inner");
      check_bool "health block renders" true
        (String.length (Obs.Trace.render_health t) > 0);
      (* diff of a trace against itself: renders, lists the matched
         span, and reports zero deltas *)
      let diff = Obs.Trace.render_diff t t in
      check_bool "self-diff lists the span" true (contains diff "outer");
      (* the matvec counter is 1 in both traces -> an exact zero delta *)
      check_bool "self-diff shows unchanged counters" true (contains diff "+0.0%"))

(* Every record kind survives emit -> sink event -> [of_event]
   unchanged (values exact at the %.9g the detail string carries). *)
let test_records_roundtrip () =
  let records =
    Obs.Health.
      [
        Cond { context = "assoc.resolvent"; dim = 7; cond = 1.25e13 };
        Ode_streak { context = "rkf45"; time = 0.5; length = 4 };
        Moment_residual { k = 3; s0 = 0.25; residual = 3e-9 };
        Freq_error { omega = 2.0; rel_err = 0.125 };
        Pod_spectrum { retained = 5; total = 20; energy = 0.9375; tail = 1e-6 };
      ]
  in
  let (), captured =
    with_memory_sink (fun () -> List.iter Obs.Health.emit records)
  in
  check_bool "every record decodes to itself" true
    (health_events captured = records)

(* Kinds this build does not know (an older trace's, say) and records
   missing a field decode to [None], so [vmor report] skips them. *)
let test_unknown_records_skipped () =
  let decode name detail = Obs.Health.of_event ~name ~detail in
  check_bool "unknown kind" true
    (decode "health.arnoldi" "context=x iter=1 ortho_loss=0 subdiag=1" = None);
  check_bool "missing field" true
    (decode "health.cond" "context=x dim=3" = None);
  check_bool "malformed number" true
    (decode "health.cond" "context=x dim=3 cond=abc" = None);
  check_bool "not a health event" true
    (decode "budget.install" "deadline=1" = None)

let health_trace records =
  let path = Filename.temp_file "vmor_health" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Sink.set (Obs.Sink.jsonl_file path);
      Fun.protect
        ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
        (fun () ->
          Obs.Span.with_ ~name:"run" (fun () ->
              List.iter Obs.Health.emit records));
      Obs.Trace.load path)

(* The report's health block: the largest estimate per context, only
   streaks of 3 or more, and the last residual per order. *)
let test_render_health_rows () =
  let t =
    health_trace
      Obs.Health.
        [
          Cond { context = "assoc.resolvent"; dim = 7; cond = 10.0 };
          Cond { context = "assoc.resolvent"; dim = 7; cond = 4000.0 };
          Ode_streak { context = "rkf45"; time = 0.5; length = 2 };
          Ode_streak { context = "rkf45"; time = 1.5; length = 5 };
          Moment_residual { k = 1; s0 = 0.5; residual = 1e-3 };
          Moment_residual { k = 1; s0 = 0.5; residual = 2e-12 };
        ]
  in
  let out = Obs.Trace.render_health t in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "%S in\n%s" needle out) true
        (contains out needle))
    [
      "cond estimate             4e+03  (assoc.resolvent, n=7)";
      "rkf45: 5 rejected near t=1.5";
      "H1(s0=0.5)  rel residual 2e-12";
    ];
  check_bool "smaller cond estimate dropped" false (contains out " 10  (");
  check_bool "short streak dropped" false (contains out "2 rejected")

(* The report's diff: headline health old vs new, with a percentage
   delta where both sides have the value and "new" where only the
   fresh trace does. *)
let test_render_diff_health () =
  let old_t =
    health_trace
      [ Obs.Health.Cond { context = "assoc.resolvent"; dim = 7; cond = 100.0 } ]
  and new_t =
    health_trace
      Obs.Health.
        [
          Cond { context = "assoc.resolvent"; dim = 7; cond = 200.0 };
          Moment_residual { k = 2; s0 = 0.5; residual = 1e-9 };
        ]
  in
  let out = Obs.Trace.render_diff old_t new_t in
  let row name =
    List.find_opt
      (String.starts_with ~prefix:name)
      (String.split_on_char '\n' out)
  in
  (match row "max cond estimate" with
  | Some l -> check_bool ("cond row doubles: " ^ l) true (contains l "+100.0%")
  | None -> Alcotest.failf "no cond row in\n%s" out);
  (match row "H2 moment residual" with
  | Some l -> check_bool ("residual row is new: " ^ l) true (contains l "new")
  | None -> Alcotest.failf "no H2 row in\n%s" out);
  check_bool "absent H1 row" true (row "H1 moment residual" = None)

(* ---- bench gate ---- *)

let bench_json ?(scale = 0.25) ?(wall = 1.0) ?(lu_factor = 100)
    ?(max_rel_error = 0.01) ?(order = 8) () =
  Printf.sprintf
    {|{
  "scale": %g,
  "experiments": [
    {
      "id": "fig_t",
      "title": "gate test",
      "full_states": 40,
      "wall_seconds": %.6f,
      "counters": {"lu_factor": %d, "matvec": 1000},
      "roms": [{"method": "Proposed", "order": %d, "raw_moments": 10,
                "reduction_seconds": 0.1, "max_rel_error": %.8f}]
    }
  ]
}|}
    scale wall lu_factor order max_rel_error

let gate ?(ignore_wall = false) old_s new_s =
  Gatecheck.check ~ignore_wall ~baseline:(Gatecheck.parse old_s)
    ~fresh:(Gatecheck.parse new_s) ()

let test_gate_pass_fail () =
  let base = bench_json () in
  check_int "identical runs pass" 0 (List.length (gate base base));
  check_int "counter wobble within 10% passes" 0
    (List.length (gate base (bench_json ~lu_factor:105 ())));
  check_int "counter jump fails" 1
    (List.length (gate base (bench_json ~lu_factor:150 ())));
  check_int "counter drop fails (stale baseline visible)" 1
    (List.length (gate base (bench_json ~lu_factor:3 ())));
  check_int "gross wall regression fails" 1
    (List.length (gate base (bench_json ~wall:10.0 ())));
  check_int "--ignore-wall skips it" 0
    (List.length (gate ~ignore_wall:true base (bench_json ~wall:10.0 ())));
  check_int "error within 2x passes" 0
    (List.length (gate base (bench_json ~max_rel_error:0.015 ())));
  check_int "error beyond 2x fails" 1
    (List.length (gate base (bench_json ~max_rel_error:0.03 ())));
  check_int "error improvement passes" 0
    (List.length (gate base (bench_json ~max_rel_error:0.0001 ())));
  check_int "order change fails" 1
    (List.length (gate base (bench_json ~order:12 ())));
  check_int "scale mismatch fails" 1
    (List.length (gate base (bench_json ~scale:1.0 ())));
  (* violations render as a table, one line per violation + header *)
  let vs = gate base (bench_json ~lu_factor:150 ~max_rel_error:0.5 ()) in
  check_int "both violations reported" 2 (List.length vs);
  check_bool "renders readably" true
    (String.length (Gatecheck.render vs) > 0);
  check_bool "clean render says OK" true
    (String.equal (Gatecheck.render []) "bench gate: OK\n")

let test_gate_structural () =
  let base = bench_json () in
  let missing = {|{ "scale": 0.25, "experiments": [] }|} in
  check_int "missing experiment fails" 1 (List.length (gate base missing));
  check_int "unexpected experiment fails" 1 (List.length (gate missing base));
  (match Gatecheck.parse base with
  | b ->
    check_int "parse keeps experiments" 1
      (List.length Obs.Json.(to_arr (member_exn "experiments" b))));
  check_bool "malformed input raises Bad_bench" true
    (match Gatecheck.parse "{ not json" with
    | exception Gatecheck.Bad_bench _ -> true
    | _ -> false)

(* Run-level wall-derived blocks: the overheads percentage-point band
   and the Vmor.Par absolute lines, with their host/noise guards. *)
let run_blocks_json ?(overhead = 0.5) ?(cores = 4) ?(serial_wall = 0.1)
    ?(speedup_4 = 3.0) ?(overhead_1_pct = 1.0) ?(wall_2 = true) () =
  Printf.sprintf
    {|{
  "scale": 0.25,
  "experiments": [],
  "overheads": {"fig3_reduce_nltl_isrc": %.2f, "ksolve_tri_tiles": 0.47},
  "par": {"cores": %d, "serial_wall": %.6f, "wall_1": 0.1, %s"wall_4": 0.04,
          "speedup_4": %.6f, "overhead_1_pct": %.6f}
}|}
    overhead cores serial_wall
    (if wall_2 then {|"wall_2": 0.06, |} else "")
    speedup_4 overhead_1_pct

let test_gate_overheads_par () =
  let base = run_blocks_json () in
  check_int "identical run blocks pass" 0 (List.length (gate base base));
  (* overheads: <= baseline + 1.0 percentage point, wall-derived *)
  let plus_09 = run_blocks_json ~overhead:1.4 () in
  let plus_11 = run_blocks_json ~overhead:1.6 () in
  check_int "overhead +0.9pt passes" 0 (List.length (gate base plus_09));
  check_int "overhead +1.1pt fails" 1 (List.length (gate base plus_11));
  check_int "overhead +0.9pt passes under ignore-wall" 0
    (List.length (gate ~ignore_wall:true base plus_09));
  check_int "overhead +1.1pt passes under ignore-wall" 0
    (List.length (gate ~ignore_wall:true base plus_11));
  (* par.speedup_4: an absolute floor on hosts with >= 4 cores, above
     the serial-wall noise floor *)
  check_int "speedup 2.0 on 4 cores fails" 1
    (List.length (gate base (run_blocks_json ~speedup_4:2.0 ())));
  check_int "speedup 2.0 on 2 cores passes" 0
    (List.length (gate base (run_blocks_json ~speedup_4:2.0 ~cores:2 ())));
  check_int "speedup 2.0 under the serial-wall floor passes" 0
    (List.length
       (gate base (run_blocks_json ~speedup_4:2.0 ~serial_wall:0.01 ())));
  (* par.overhead_1_pct: an absolute ceiling *)
  check_int "1-domain overhead 2.5% fails" 1
    (List.length (gate base (run_blocks_json ~overhead_1_pct:2.5 ())));
  check_int "1-domain overhead 1.5% passes" 0
    (List.length (gate base (run_blocks_json ~overhead_1_pct:1.5 ())));
  (* a par key on one side only is structural, in both modes *)
  let no_wall_2 = run_blocks_json ~wall_2:false () in
  check_int "par key missing fails" 1 (List.length (gate base no_wall_2));
  check_int "par key missing fails under ignore-wall" 1
    (List.length (gate ~ignore_wall:true base no_wall_2));
  check_int "par key appearing fails" 1 (List.length (gate no_wall_2 base));
  check_int "par key appearing fails under ignore-wall" 1
    (List.length (gate ~ignore_wall:true no_wall_2 base))

(* the run-level latency block: requests exact, p50/p99 walls banded
   (skipped under --ignore-wall), its presence structural *)
let latency_json ?latency () =
  let lat =
    match latency with
    | None -> ""
    | Some (p50, p99) ->
      Printf.sprintf
        ",\n  \"latency\": {\"requests\": 32, \"p50_s\": %s, \"p99_s\": %s}"
        p50 p99
  in
  Printf.sprintf "{\"scale\": 0.25,\n  \"experiments\": []%s}\n" lat

let test_gate_latency_matrix () =
  let good = latency_json ~latency:("0.5", "0.75") () in
  check_int "identical passes" 0 (List.length (gate good good));
  let slow = latency_json ~latency:("1.2", "0.75") () in
  check_int "p50 blowup fails with walls on" 1 (List.length (gate good slow));
  check_int "p50 blowup skipped under ignore-wall" 0
    (List.length (gate ~ignore_wall:true good slow));
  let wobble = latency_json ~latency:("0.5625", "0.875") () in
  check_int "small wall wobble passes" 0 (List.length (gate good wobble));
  let absent = latency_json () in
  check_int "block disappearing fails" 1
    (List.length (gate ~ignore_wall:true good absent));
  check_int "block appearing vs old baseline fails" 1
    (List.length (gate ~ignore_wall:true absent good))

(* health gauges move only while a sink listens *)
let test_health_gauges_under_sink () =
  let pod =
    Obs.Health.Pod_spectrum { retained = 3; total = 9; energy = 0.75; tail = 0.01 }
  in
  let gauge () = List.assoc_opt "health.pod_energy" (Obs.Metrics.gauges ()) in
  let before = gauge () in
  Obs.Health.emit pod;
  check_bool "null sink: gauge untouched" true (gauge () = before);
  ignore (with_memory_sink (fun () -> Obs.Health.emit pod));
  check_bool "active sink: gauge set" true (gauge () = Some 0.75);
  ignore
    (with_memory_sink (fun () ->
         Obs.Health.emit
           (Obs.Health.Moment_residual { k = 2; s0 = 0.0; residual = 1e-9 })));
  check_bool "moment residual gauge set" true
    (List.assoc_opt "health.moment_residual.h2" (Obs.Metrics.gauges ())
    = Some 1e-9)

let suite =
  [
    ( "health",
      [
        Alcotest.test_case "ksolve shifted cond estimate" `Quick
          test_ksolve_cond_estimate;
        Alcotest.test_case "ksolve k=3 mixed-sum poles" `Quick
          test_ksolve_k3_mixed_poles;
        Alcotest.test_case "assoc cond records for k = 1..3" `Quick
          test_assoc_cond_records;
        Alcotest.test_case "moment residuals vanish on exact ROM" `Quick
          test_moment_residual_exact;
        Alcotest.test_case "reduce emits residual/cond/sweep records" `Quick
          test_reduce_emits_health;
        Alcotest.test_case "trace round-trip, report and self-diff" `Quick
          test_trace_roundtrip;
        Alcotest.test_case "bench gate pass/fail deltas" `Quick
          test_gate_pass_fail;
        Alcotest.test_case "bench gate structural checks" `Quick
          test_gate_structural;
        Alcotest.test_case "bench gate overheads and par bands" `Quick
          test_gate_overheads_par;
        Alcotest.test_case "gate latency matrix" `Quick
          test_gate_latency_matrix;
        Alcotest.test_case "health gauges under a sink" `Quick
          test_health_gauges_under_sink;
        Alcotest.test_case "every record kind round-trips" `Quick
          test_records_roundtrip;
        Alcotest.test_case "unknown and malformed records skipped" `Quick
          test_unknown_records_skipped;
        Alcotest.test_case "report health rows" `Quick test_render_health_rows;
        Alcotest.test_case "report diff health rows" `Quick
          test_render_diff_health;
        Alcotest.test_case "series-head residuals match the eval oracle" `Quick
          test_residuals_match_eval_oracle;
        Alcotest.test_case "residuals only for the realized orders" `Quick
          test_residuals_follow_orders;
        Alcotest.test_case "own heads match a fresh engine's bit for bit"
          `Quick test_own_heads_match_fresh_engine;
        Alcotest.test_case "traced NORM checks H1 only, plus the sweep" `Quick
          test_norm_checks_h1_only;
        Alcotest.test_case "sylvester's eq.-18 H2 head checks like Assoc's"
          `Quick test_sylvester_h2_head;
      ] );
  ]
