(* Tests for the deterministic quantile histograms (Obs.Qhist), the
   library call sites that feed them (ODE steppers, the reducer tail,
   health headlines), and the bench gate's latency
   block.

   The load-bearing assertion is exactness: Qhist bucket counts and
   quantiles must come out bit-identical whether a value stream is
   observed serially or split across 4 domains. *)

let check_int = Alcotest.(check int)

(* Fixed synthetic value stream: integer LCG + ldexp only, so the
   multiset is identical on every host and the only question is
   whether the histogram machinery preserves it. *)
let lcg_stream ~seed n =
  let x = ref seed in
  List.init n (fun _ ->
      x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
      let m = 1.0 +. (float_of_int (!x land 0xFFFF) /. 65536.0) in
      let e = ((!x lsr 16) mod 20) - 10 in
      Float.ldexp m e)

(* ---- qhist: geometry, merge exactness, quantile determinism ---- *)

let test_qhist_geometry () =
  (* below-range, zero, negative and NaN land in underflow *)
  check_int "zero underflows" 0 (Obs.Qhist.bucket_index 0.0);
  check_int "negative underflows" 0 (Obs.Qhist.bucket_index (-1.0));
  check_int "nan underflows" 0 (Obs.Qhist.bucket_index Float.nan);
  check_int "inf overflows"
    (Obs.Qhist.n_buckets - 1)
    (Obs.Qhist.bucket_index Float.infinity);
  (* each in-range value sits strictly under its bucket's upper edge
     and at-or-above the previous bucket's (half-open [lower, upper)) *)
  List.iter
    (fun v ->
      let i = Obs.Qhist.bucket_index v in
      Alcotest.(check bool)
        (Printf.sprintf "%g < upper_bound %d" v i)
        true
        (v < Obs.Qhist.upper_bound i);
      Alcotest.(check bool)
        (Printf.sprintf "%g >= upper_bound %d" v (i - 1))
        true
        (v >= Obs.Qhist.upper_bound (i - 1)))
    [ 1e-9; 0.001; 0.5; 0.9999; 1.0; 1.25; 3.0; 1000.0; 1e9 ];
  (* a dyadic boundary value counts toward the higher bucket: 1.0 is
     the lower edge of its bucket, i.e. the previous upper edge *)
  let i1 = Obs.Qhist.bucket_index 1.0 in
  Alcotest.(check (float 0.0))
    "1.0 sits on its bucket's lower edge" 1.0
    (Obs.Qhist.upper_bound (i1 - 1))

let test_qhist_merge_determinism () =
  let values = lcg_stream ~seed:42 2000 in
  List.iter (Obs.Qhist.observe "t.qh.serial") values;
  Vmor.Par.with_domains (Some 4) (fun () ->
      ignore
        (Vmor.Par.map_list (fun v -> Obs.Qhist.observe "t.qh.par" v) values));
  let vs =
    match Obs.Qhist.view "t.qh.serial" with
    | Some v -> v
    | None -> Alcotest.fail "serial view missing"
  in
  let vp =
    match Obs.Qhist.view "t.qh.par" with
    | Some v -> v
    | None -> Alcotest.fail "parallel view missing"
  in
  check_int "counts equal" vs.Obs.Qhist.count vp.Obs.Qhist.count;
  Alcotest.(check (array int))
    "bucket counts bit-identical across domain splits" vs.Obs.Qhist.buckets
    vp.Obs.Qhist.buckets;
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "p%g bit-identical" (100.0 *. q))
        true
        (Float.equal (Obs.Qhist.quantile vs q) (Obs.Qhist.quantile vp q)))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  (* quantiles are monotone in q and live inside [min, max] bucket span *)
  let p50 = Obs.Qhist.quantile vs 0.5 in
  let p99 = Obs.Qhist.quantile vs 0.99 in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alcotest.(check bool)
    "nonzero_buckets positive" true
    (Obs.Qhist.nonzero_buckets vs > 0)

let test_qhist_moments () =
  List.iter
    (fun v -> Obs.Qhist.observe "t.qh.sd" (float_of_int v))
    [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  let v =
    match Obs.Qhist.view "t.qh.sd" with
    | Some v -> v
    | None -> Alcotest.fail "view missing"
  in
  check_int "count" 8 v.Obs.Qhist.count;
  Alcotest.(check (float 1e-12)) "mean" 5.0 (Obs.Qhist.mean v);
  Alcotest.(check (float 1e-12)) "stddev" 2.0 (Obs.Qhist.stddev v);
  Alcotest.(check (float 0.0)) "min" 2.0 v.Obs.Qhist.minv;
  Alcotest.(check (float 0.0)) "max" 9.0 v.Obs.Qhist.maxv

(* every instrumented span close feeds its duration into the
   "span.<name>" qhist (under the null sink spans don't run at all —
   that is the zero-overhead contract, not a missed feed) *)
let test_span_feeds_qhist () =
  let before =
    match Obs.Qhist.view "span.t.fed" with
    | Some v -> v.Obs.Qhist.count
    | None -> 0
  in
  let sink, _captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      Obs.Span.with_ ~name:"t.fed" (fun () -> ());
      Obs.Span.with_ ~name:"t.fed" (fun () -> ()));
  match Obs.Qhist.view "span.t.fed" with
  | Some v -> check_int "span durations recorded" (before + 2) v.Obs.Qhist.count
  | None -> Alcotest.fail "span qhist missing"

(* ---- call sites: solvers, Krylov loops and reducers feed Qhist ---- *)

let hist_count name =
  match Obs.Qhist.view name with Some v -> v.Obs.Qhist.count | None -> 0

let hist_sum name =
  match Obs.Qhist.view name with Some v -> v.Obs.Qhist.sum | None -> 0.0

(* x' = -x: smooth, linear, converges in one chord iteration per step *)
let decay =
  {
    Ode.Types.dim = 1;
    rhs = (fun _ x -> La.Vec.scale (-1.0) x);
    jac = Some (fun _ _ -> La.Mat.diag (La.Vec.of_array [| -1.0 |]));
  }

let run_rkf45 () =
  Ode.Rkf45.integrate decay ~t0:0.0 ~t1:2.0 ~x0:(La.Vec.of_array [| 1.0 |])
    ~samples:5 ()

let test_rkf45_feeds_qhist () =
  let steps0 = hist_count "rkf45.step_size"
  and errs0 = hist_count "rkf45.local_error"
  and sum0 = hist_sum "rkf45.step_size" in
  let sol = run_rkf45 () in
  let steps = sol.Ode.Types.stats.Ode.Types.steps in
  Alcotest.(check bool) "integration took steps" true (steps > 0);
  check_int "one step_size per accepted step" (steps0 + steps)
    (hist_count "rkf45.step_size");
  check_int "one local_error per accepted step" (errs0 + steps)
    (hist_count "rkf45.local_error");
  (* the accepted steps tile [t0, t1] exactly *)
  Alcotest.(check (float 1e-9))
    "step sizes sum to the span" 2.0
    (hist_sum "rkf45.step_size" -. sum0)

let run_imtrap () =
  Ode.Imtrap.integrate decay ~t0:0.0 ~t1:1.0 ~x0:(La.Vec.of_array [| 1.0 |])
    ~h:0.1 ~samples:5 ()

let test_imtrap_feeds_qhist () =
  let steps0 = hist_count "imtrap.step_size"
  and iters0 = hist_count "imtrap.newton_iters" in
  let sol = run_imtrap () in
  let steps = sol.Ode.Types.stats.Ode.Types.steps in
  Alcotest.(check bool) "integration took steps" true (steps >= 10);
  check_int "one step_size per step" (steps0 + steps)
    (hist_count "imtrap.step_size");
  check_int "one newton_iters per step" (iters0 + steps)
    (hist_count "imtrap.newton_iters")

let test_reduce_feeds_qhist () =
  let q =
    Circuit.Models.qldae
      (Circuit.Models.nltl ~stages:6 ~source:(`Voltage 1.0) ())
  in
  let before = hist_count "reduction_seconds" in
  let r = Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 3; k2 = 1; k3 = 0 } q in
  check_int "one observation per reduction" (before + 1)
    (hist_count "reduction_seconds");
  match Obs.Qhist.view "reduction_seconds" with
  | Some v ->
    Alcotest.(check bool) "reported time within the observed range" true
      (r.Mor.Atmor.reduction_seconds <= v.Obs.Qhist.maxv)
  | None -> Alcotest.fail "reduction_seconds histogram missing"

(* health headlines reach Qhist only while a sink listens *)
let test_health_feeds_qhist () =
  let cond = Obs.Health.Cond { context = "t.cond"; dim = 3; cond = 1e7 } in
  let before = hist_count "health.cond" in
  Obs.Health.emit cond;
  check_int "null sink: nothing observed" before (hist_count "health.cond");
  let sink, _captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () -> Obs.Health.emit cond);
  check_int "active sink: one observation" (before + 1)
    (hist_count "health.cond");
  match Obs.Qhist.view "health.cond" with
  | Some v ->
    Alcotest.(check bool) "condition estimate recorded" true
      (v.Obs.Qhist.maxv >= 1e7)
  | None -> Alcotest.fail "health.cond histogram missing"

let test_disabled_call_sites () =
  let names =
    [ "rkf45.step_size"; "rkf45.local_error"; "imtrap.step_size";
      "imtrap.newton_iters" ]
  in
  let before = List.map hist_count names in
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled true)
    (fun () ->
      ignore (run_rkf45 ());
      ignore (run_imtrap ()));
  List.iter2
    (fun name n -> check_int (name ^ " untouched while disabled") n (hist_count name))
    names before

(* ---- bench gate: latency block pass/fail matrix ---- *)

let bench_src ?latency () =
  let lat =
    match latency with
    | None -> ""
    | Some (p50, p99, det_p50) ->
      Printf.sprintf
        ",\n\
        \  \"latency\": {\"requests\": 32, \"p50_s\": %s, \"p99_s\": %s, \
         \"det\": {\"count\": 4096, \"nonzero_buckets\": 160, \"p50\": %s, \
         \"p90\": 63.25, \"p99\": 774.5}}"
        p50 p99 det_p50
  in
  Printf.sprintf "{\"scale\": 0.25,\n  \"experiments\": []%s}\n" lat

let violations ?(ignore_wall = false) base fresh =
  Gatecheck.check ~ignore_wall ~baseline:(Gatecheck.parse base)
    ~fresh:(Gatecheck.parse fresh) ()

let test_gate_latency_matrix () =
  let good = bench_src ~latency:("0.5", "0.75", "0.000753") () in
  check_int "identical passes" 0 (List.length (violations good good));
  (* det drift fails even under --ignore-wall: the fingerprint is the
     determinism contract, not a timing *)
  let det_drift = bench_src ~latency:("0.5", "0.75", "0.000754") () in
  check_int "det drift fails" 1
    (List.length (violations ~ignore_wall:true good det_drift));
  (* wall quantile drift: banded without --ignore-wall, skipped with *)
  let slow = bench_src ~latency:("1.2", "0.75", "0.000753") () in
  check_int "p50 blowup fails with walls on" 1
    (List.length (violations good slow));
  check_int "p50 blowup skipped under ignore-wall" 0
    (List.length (violations ~ignore_wall:true good slow));
  (* small wall wobble stays inside the band *)
  let wobble = bench_src ~latency:("0.5625", "0.875", "0.000753") () in
  check_int "one-bucket wobble passes" 0
    (List.length (violations good wobble));
  (* structural both directions *)
  let absent = bench_src () in
  check_int "block disappearing fails" 1
    (List.length (violations ~ignore_wall:true good absent));
  check_int "block appearing vs old baseline fails" 1
    (List.length (violations ~ignore_wall:true absent good))

let suite =
  [
    ( "qhist.determinism",
      [
        Alcotest.test_case "bucket geometry" `Quick test_qhist_geometry;
        Alcotest.test_case "merge + quantile determinism" `Quick
          test_qhist_merge_determinism;
        Alcotest.test_case "moments" `Quick test_qhist_moments;
        Alcotest.test_case "span durations feed qhist" `Quick
          test_span_feeds_qhist;
        Alcotest.test_case "gate latency matrix" `Quick
          test_gate_latency_matrix;
      ] );
    ( "qhist.call_sites",
      [
        Alcotest.test_case "rkf45 steps" `Quick test_rkf45_feeds_qhist;
        Alcotest.test_case "imtrap steps" `Quick test_imtrap_feeds_qhist;
        Alcotest.test_case "one reduction_seconds per reduce" `Quick
          test_reduce_feeds_qhist;
        Alcotest.test_case "health headlines under a sink" `Quick
          test_health_feeds_qhist;
        Alcotest.test_case "disabled recording" `Quick test_disabled_call_sites;
      ] );
  ]
