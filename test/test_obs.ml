(* Tests for the observability layer (lib/obs) and the Vmor facade
   redesign that exposed it: span nesting and per-span counter
   attribution, counter determinism against a real reduction, JSONL
   round-trips, null-sink purity, the <2% disabled-instrumentation
   budget, the VMOR_METRICS switch, the counters the integrators and the
   reducer tail record, Clock.quantile's nearest rank, facade
   equivalence (deprecated wrapper vs Options path) and the all-channel
   MIMO comparison fix. *)

open La

(* Every test that installs a sink must restore the null default, or
   later suites would start tracing into a dangling closure. *)
let with_memory_sink f =
  let sink, captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect ~finally:(fun () -> Obs.Sink.set Obs.Sink.null) (fun () -> f ());
  captured ()

let small_nltl () =
  Circuit.Models.qldae (Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) ())

(* ---- spans ---- *)

let test_span_nesting () =
  let c =
    with_memory_sink (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"first" (fun () -> ());
            Obs.Span.with_ ~name:"second" (fun () -> ())))
  in
  (* spans emit at close: children before their parent *)
  Alcotest.(check (list string))
    "emission order" [ "first"; "second"; "outer" ]
    (List.map (fun (s : Obs.Sink.span_record) -> s.name) c.Obs.Sink.spans);
  Alcotest.(check (list int))
    "depths" [ 1; 1; 0 ]
    (List.map (fun (s : Obs.Sink.span_record) -> s.depth) c.Obs.Sink.spans);
  List.iter
    (fun (s : Obs.Sink.span_record) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s duration nonnegative" s.name)
        true (s.dur >= 0.0))
    c.Obs.Sink.spans

let test_span_counters_inclusive () =
  let c =
    with_memory_sink (fun () ->
        Obs.Span.with_ ~name:"parent" (fun () ->
            Obs.Metrics.incr Obs.Metrics.Lu_factor;
            Obs.Span.with_ ~name:"child" (fun () ->
                Obs.Metrics.incr ~by:3 Obs.Metrics.Matvec)))
  in
  let find name =
    List.find
      (fun (s : Obs.Sink.span_record) -> s.name = name)
      c.Obs.Sink.spans
  in
  Alcotest.(check (list (pair string int)))
    "child sees only its own counters" [ ("matvec", 3) ] (find "child").counters;
  (* parent deltas are inclusive of the child *)
  Alcotest.(check (list (pair string int)))
    "parent sees child's counters too"
    [ ("lu_factor", 1); ("matvec", 3) ]
    (find "parent").counters

let test_span_exception_safety () =
  let c =
    with_memory_sink (fun () ->
        (try
           Obs.Span.with_ ~name:"doomed" (fun () -> failwith "obs-test-boom")
         with Failure _ -> ());
        (* depth must be restored: the next span is top-level again *)
        Obs.Span.with_ ~name:"after" (fun () -> ()))
  in
  Alcotest.(check (list (pair string int)))
    "span emitted on raise, depth restored"
    [ ("doomed", 0); ("after", 0) ]
    (List.map
       (fun (s : Obs.Sink.span_record) -> (s.name, s.depth))
       c.Obs.Sink.spans)

let test_events () =
  let c =
    with_memory_sink (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.event "recovery" ~detail:"[nudge:2.0001] singular-solve"))
  in
  match c.Obs.Sink.events with
  | [ e ] ->
    Alcotest.(check string) "event name" "recovery" e.Obs.Sink.name;
    Alcotest.(check int) "event depth" 1 e.Obs.Sink.depth;
    Alcotest.(check string)
      "event detail" "[nudge:2.0001] singular-solve" e.Obs.Sink.detail
  | es -> Alcotest.failf "expected exactly one event, got %d" (List.length es)

(* ---- counters against a real reduction ---- *)

let test_counter_determinism () =
  let q = small_nltl () in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } in
  let deltas () =
    let snap = Obs.Metrics.snapshot () in
    ignore (Mor.Atmor.reduce ~orders q);
    List.map (fun (c, n) -> (Obs.Metrics.name c, n)) (Obs.Metrics.since snap)
  in
  let first = deltas () in
  let second = deltas () in
  Alcotest.(check (list (pair string int)))
    "two identical reductions count identically" first second;
  let get name =
    match List.assoc_opt name first with Some n -> n | None -> 0
  in
  (* a D1 model expands at s0 = 1 without probing G1's LU, and every
     solve runs on the engine's Schur factorization *)
  Alcotest.(check int) "no LU factorization" 0 (get "lu_factor");
  Alcotest.(check bool) "shifted solves counted" true (get "shifted_solve" > 0);
  Alcotest.(check bool) "matvecs counted" true (get "matvec" > 0)

let test_span_counters_match_metrics () =
  (* the counters a traced span reports must be exactly the Metrics
     deltas over the same region — this is what makes the JSONL trace
     of a reduction deterministic and auditable *)
  let q = small_nltl () in
  let snap = ref (Obs.Metrics.snapshot ()) in
  let c =
    with_memory_sink (fun () ->
        snap := Obs.Metrics.snapshot ();
        Obs.Span.with_ ~name:"wrapper" (fun () ->
            ignore (Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } q)))
  in
  let expected =
    List.map (fun (c, n) -> (Obs.Metrics.name c, n)) (Obs.Metrics.since !snap)
  in
  let wrapper =
    List.find
      (fun (s : Obs.Sink.span_record) -> s.name = "wrapper")
      c.Obs.Sink.spans
  in
  Alcotest.(check (list (pair string int)))
    "span counters = metrics deltas" expected wrapper.Obs.Sink.counters

let test_disabled_counters_are_noops () =
  let before = Obs.Metrics.get Obs.Metrics.Matvec in
  let csnap = Obs.Cost.snapshot () in
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled true)
    (fun () ->
      Obs.Metrics.incr ~by:100 Obs.Metrics.Matvec;
      Obs.Metrics.set_gauge "obs_test_gauge" 1.0;
      Obs.Cost.charge Obs.Cost.Flops_lu 1_000 ~read:10 ~written:10;
      ignore
        (with_memory_sink (fun () ->
             Obs.Span.with_ ~name:"obs_test_off" ignore)));
  Alcotest.(check int)
    "counter untouched while disabled" before
    (Obs.Metrics.get Obs.Metrics.Matvec);
  Alcotest.(check (list (pair string int)))
    "cost untouched while disabled" []
    (List.map (fun (c, n) -> (Obs.Cost.name c, n)) (Obs.Cost.since csnap));
  Alcotest.(check bool)
    "gauge not recorded while disabled" true
    (List.assoc_opt "obs_test_gauge" (Obs.Metrics.gauges ()) = None)

(* Every counter owns one registry slot: bumping each by a distinct
   amount shows exactly those deltas under their own names, and no Cost
   slot (which start right after the event slots) moves. *)
let test_counter_slots_distinct () =
  Alcotest.(check int)
    "cost slots start after the event slots"
    (List.length Obs.Metrics.all)
    Obs.Registry.cost_base;
  let names = List.map Obs.Metrics.name Obs.Metrics.all in
  Alcotest.(check int) "counter names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  let snap = Obs.Metrics.snapshot () and csnap = Obs.Cost.snapshot () in
  List.iteri (fun i c -> Obs.Metrics.incr ~by:(i + 1) c) Obs.Metrics.all;
  Alcotest.(check (list (pair string int)))
    "each counter lands in its own slot"
    (List.mapi (fun i name -> (name, i + 1)) names)
    (List.map (fun (c, n) -> (Obs.Metrics.name c, n)) (Obs.Metrics.since snap));
  Alcotest.(check (list (pair string int)))
    "cost slots untouched" []
    (List.map (fun (c, n) -> (Obs.Cost.name c, n)) (Obs.Cost.since csnap))

(* ---- JSONL ---- *)

let test_jsonl_rendering () =
  let span =
    {
      Obs.Sink.name = "atmor.reduce";
      depth = 1;
      start = 1.5;
      dur = 0.25;
      counters = [ ("lu_factor", 1); ("matvec", 42) ];
      cost = [ ("flops_matvec", 7200) ];
      prof = None;
    }
  in
  Alcotest.(check string)
    "span json"
    "{\"type\":\"span\",\"name\":\"atmor.reduce\",\"depth\":1,\"start\":1.500000,\"dur\":0.250000,\"counters\":{\"lu_factor\":1,\"matvec\":42},\"cost.flops_matvec\":7200}"
    (Obs.Sink.record_to_json span);
  let event =
    {
      Obs.Sink.name = "recovery";
      depth = 2;
      time = 3.0;
      detail = "pole \"hit\"\nat s0";
    }
  in
  Alcotest.(check string)
    "event json escapes quotes and newlines"
    "{\"type\":\"event\",\"name\":\"recovery\",\"depth\":2,\"time\":3.000000,\"detail\":\"pole \\\"hit\\\"\\nat s0\"}"
    (Obs.Sink.event_to_json event)

(* The wire format knows spans and events only: the same record
   retagged "scope" (a record type older traces carried) is rejected
   like any unknown type, not half-parsed into the span tree. *)
let test_scope_record_rejected () =
  let span =
    Obs.Sink.record_to_json
      { Obs.Sink.name = "t.wire"; depth = 0; start = 0.0; dur = 0.1;
        counters = [ ("matvec", 7) ]; cost = []; prof = None }
  in
  (match Obs.Trace.parse_line span with
  | Obs.Trace.Span s -> Alcotest.(check string) "span parses" "t.wire" s.Obs.Sink.name
  | Obs.Trace.Event _ -> Alcotest.fail "span parsed as an event");
  let tag = "\"type\":\"span\"" in
  let n = String.length tag in
  let scope = "{\"type\":\"scope\"" ^ String.sub span (n + 1) (String.length span - n - 1) in
  Alcotest.(check string) "retagged prefix" "{\"type\":\"scope\",\"name\""
    (String.sub scope 0 22);
  match Obs.Trace.parse_line scope with
  | _ -> Alcotest.fail "a scope record must not parse"
  | exception Obs.Trace.Malformed m ->
    Alcotest.(check bool) ("names the type: " ^ m) true
      (String.length m >= 7
       && String.sub m (String.length m - 7) 7 = "\"scope\"")

let test_clock_time () =
  let v, dt = Obs.Clock.time (fun () -> 17) in
  Alcotest.(check int) "value passes through" 17 v;
  Alcotest.(check bool) "duration nonnegative" true (dt >= 0.0);
  (* a thunk that spins for 2 ms must be timed at no less than that *)
  let _, dt =
    Obs.Clock.time (fun () ->
        let t0 = Obs.Clock.now () in
        while Obs.Clock.now () -. t0 < 0.002 do
          ()
        done)
  in
  Alcotest.(check bool) "covers the thunk's wall time" true (dt >= 0.002)

let test_jsonl_file_roundtrip () =
  (* relative path: lands in the dune sandbox, not the source tree *)
  let path = "test_obs_trace.jsonl" in
  let oc = open_out path in
  let sink = Obs.Sink.jsonl oc in
  Obs.Sink.set sink;
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.set Obs.Sink.null;
      close_out_noerr oc;
      Sys.remove path)
    (fun () ->
      Obs.Span.with_ ~name:"outer" (fun () ->
          Obs.Span.event "ping" ~detail:"d";
          Obs.Span.with_ ~name:"inner" (fun () ->
              Obs.Metrics.incr Obs.Metrics.Lu_solve));
      sink.Obs.Sink.flush ();
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      Alcotest.(check int) "three JSONL lines" 3 (List.length lines);
      let kinds =
        List.map
          (fun l ->
            if String.length l > 16 && String.sub l 0 16 = "{\"type\":\"event\"," then
              `Event
            else `Span)
          lines
      in
      (* event fires first; spans close inner-before-outer *)
      Alcotest.(check bool)
        "event line then two span lines" true
        (kinds = [ `Event; `Span; `Span ]);
      List.iter
        (fun l ->
          Alcotest.(check bool)
            (Printf.sprintf "line is a JSON object: %s" l)
            true
            (String.length l > 2
            && l.[0] = '{'
            && l.[String.length l - 1] = '}'))
        lines)

(* ---- null sink ---- *)

let test_null_sink_purity () =
  Obs.Sink.set Obs.Sink.null;
  Alcotest.(check bool) "inactive under null" false (Obs.Span.active ());
  let v = Obs.Span.with_ ~name:"untraced" (fun () -> 17) in
  Alcotest.(check int) "value passes through" 17 v;
  Obs.Span.event "ignored" ~detail:"nothing";
  (* no depth leak: a traced span after the null-sink one is top-level *)
  let c = with_memory_sink (fun () -> Obs.Span.with_ ~name:"top" (fun () -> ())) in
  match c.Obs.Sink.spans with
  | [ s ] -> Alcotest.(check int) "depth clean after null spans" 0 s.Obs.Sink.depth
  | ss -> Alcotest.failf "expected one span, got %d" (List.length ss)

(* ---- disabled-instrumentation overhead budget ---- *)

(* The runtest-wired form of bench/main.exe's `obs` pass, checked by
   counts rather than walls: on the hottest counter site, enabled
   counters (the shipping default, null sink) must record exactly one
   Matvec per product and disabled ones none. Neither mode may allocate
   beyond the products themselves, and no span may be live, so the
   enabled path adds only its counter update. *)
let test_disabled_overhead_budget () =
  let rng = Random.State.make [| 41 |] in
  let n = 40 in
  let a = Mat.random ~rng n n in
  let v = Mat.random_vec ~rng n in
  let loop () =
    for _ = 1 to 4_000 do
      ignore (Sys.opaque_identity (Mat.mul_vec a v))
    done
  in
  let measure enabled =
    Obs.Metrics.set_enabled enabled;
    Alcotest.(check bool) "no live span" false (Obs.Span.active ());
    let m0 = Obs.Metrics.get Obs.Metrics.Matvec and p0 = Obs.Prof.take () in
    loop ();
    let words = Obs.Prof.alloc_words (Obs.Prof.since p0) in
    Obs.Metrics.set_enabled true;
    Alcotest.(check bool) "no live span" false (Obs.Span.active ());
    (Obs.Metrics.get Obs.Metrics.Matvec - m0, words)
  in
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled true)
    (fun () ->
      loop ();
      let on_matvecs, on_words = measure true in
      let off_matvecs, off_words = measure false in
      Alcotest.(check int) "one Matvec per product, enabled" 4_000 on_matvecs;
      Alcotest.(check int) "no Matvec, disabled" 0 off_matvecs;
      Alcotest.(check (float 0.0)) "same words allocated per loop, on and off" off_words on_words)

(* ---- facade: Options vs deprecated wrapper ---- *)

let check_same_reduction name (a : Vmor.reduction) (b : Vmor.reduction) =
  Alcotest.(check int)
    (name ^ ": same order") (Vmor.order a) (Vmor.order b);
  Alcotest.(check int)
    (name ^ ": same raw moments") a.Vmor.Mor.Atmor.raw_moments
    b.Vmor.Mor.Atmor.raw_moments;
  let ba = a.Vmor.Mor.Atmor.basis and bb = b.Vmor.Mor.Atmor.basis in
  Alcotest.(check (pair int int))
    (name ^ ": same basis shape")
    (Mat.rows ba, Mat.cols ba)
    (Mat.rows bb, Mat.cols bb);
  for i = 0 to Mat.rows ba - 1 do
    for j = 0 to Mat.cols ba - 1 do
      if Mat.get ba i j <> Mat.get bb i j then
        Alcotest.failf "%s: basis differs at (%d,%d): %.17g vs %.17g" name i j
          (Mat.get ba i j) (Mat.get bb i j)
    done
  done

let test_facade_options_equivalence () =
  let q = small_nltl () in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 1 } in
  let via_options =
    Vmor.reduce ~options:(Vmor.Options.make ~s0:0.0 ~tol:1e-8 ()) ~orders q
  in
  let direct = Mor.Atmor.reduce ~s0:0.0 ~tol:1e-8 ~orders q in
  check_same_reduction "facade vs Mor.Atmor" via_options direct

let test_facade_method_dispatch () =
  let q = small_nltl () in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 0 } in
  let norm_facade =
    Vmor.reduce ~options:(Vmor.Options.make ~method_:Vmor.Norm_baseline ()) ~orders q
  in
  check_same_reduction "norm dispatch" norm_facade (Mor.Norm.reduce ~orders q);
  (* multipoint on the RF receiver: the NLTL's H2 moments at s0 = 0
     need the single-point engine's nudge recovery, which
     reduce_multipoint deliberately does not do *)
  let q_rf =
    Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:5 ~pa_stages:5 ())
  in
  let points = [ 0.0; 2.0 ] in
  let mp_orders = { Mor.Atmor.k1 = 3; k2 = 1; k3 = 0 } in
  let mp_facade =
    Vmor.reduce
      ~options:(Vmor.Options.make ~method_:(Vmor.Multipoint points) ())
      ~orders:mp_orders q_rf
  in
  check_same_reduction "multipoint dispatch" mp_facade
    (Mor.Atmor.reduce_multipoint ~points ~orders:mp_orders q_rf)

(* ---- MIMO comparison fix ---- *)

(* Regression for the facade bug where [compare_transient] silently
   compared only output channel 0: a ROM that is exact on channel 0
   but wrong on channel 1 must now report a large error. *)
let test_compare_transient_all_channels () =
  let n = 3 in
  let g1 = Mat.diag (Vec.of_list [ -1.0; -2.0; -3.0 ]) in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c_rows scale2 =
    Mat.init 2 n (fun p j ->
        if p = 0 then 1.0 else if j = 0 then scale2 else 0.0)
  in
  let q = Volterra.Qldae.make ~g1 ~b ~c:(c_rows 1.0) () in
  let identity_reduction rom =
    {
      Mor.Atmor.basis = Mat.identity n;
      rom;
      orders = { Mor.Atmor.k1 = n; k2 = 0; k3 = 0 };
      s0 = 0.0;
      raw_moments = n;
      reduction_seconds = 0.0;
      degradation = Robust.Report.empty;
    }
  in
  let input =
    Waves.Source.vectorize [ Waves.Source.damped_sine ~freq:0.2 ~decay:0.1 1.0 ]
  in
  (* exact "ROM": both channels agree *)
  let exact = identity_reduction q in
  let c_ok = Vmor.compare_transient ~samples:101 q exact ~input ~t1:10.0 in
  Alcotest.(check int) "two channels captured" 2 (Array.length c_ok.Vmor.full_outputs);
  Alcotest.(check bool)
    (Printf.sprintf "identical model has ~zero error (got %.3e)"
       c_ok.Vmor.max_rel_error)
    true
    (c_ok.Vmor.max_rel_error < 1e-12);
  (* tampered second channel: exact on channel 0, 2x on channel 1 *)
  let tampered =
    identity_reduction (Volterra.Qldae.make ~g1 ~b ~c:(c_rows 2.0) ())
  in
  let c_bad = Vmor.compare_transient ~samples:101 q tampered ~input ~t1:10.0 in
  let ch0_err =
    Waves.Metrics.max_relative_error
      ~reference:c_bad.Vmor.full_outputs.(0)
      ~approx:c_bad.Vmor.rom_outputs.(0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "channel 0 still agrees (got %.3e)" ch0_err)
    true (ch0_err < 1e-12);
  Alcotest.(check bool)
    (Printf.sprintf "channel 1 mismatch surfaces (got %.3e)"
       c_bad.Vmor.max_rel_error)
    true
    (c_bad.Vmor.max_rel_error > 0.5)

(* ---- VMOR_METRICS: the environment twin of --metrics ---- *)

let test_metrics_env () =
  let err = Filename.temp_file "vmor_metrics" ".err" in
  let csv = Filename.temp_file "vmor_metrics" ".csv" in
  Sys.remove csv;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ err; csv ])
    (fun () ->
      let stderr_with value =
        let code =
          Sys.command
            (Printf.sprintf
               "env -u VMOR_DEADLINE -u VMOR_TRACE VMOR_METRICS=%s %s reduce \
                --model nltl-v --scale 0.1 --orders 3,1,0 > /dev/null 2> %s"
               (Filename.quote value) (Filename.quote Build_tree.vmor_cli)
               (Filename.quote err))
        in
        Alcotest.(check int) ("exit code, VMOR_METRICS=" ^ value) 0 code;
        In_channel.with_open_bin err In_channel.input_all
      in
      let has_table text =
        let needle = "vmor metrics\n" in
        let nl = String.length needle and l = String.length text in
        let rec go i =
          i + nl <= l && (String.equal (String.sub text i nl) needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "stderr prints the table" true
        (has_table (stderr_with "stderr"));
      Alcotest.(check bool) "1 prints the table" true
        (has_table (stderr_with "1"));
      (* any other value is off: a path is no longer a CSV sink *)
      Alcotest.(check bool) "a file path prints nothing" false
        (has_table (stderr_with csv));
      Alcotest.(check bool) "and writes no file" false (Sys.file_exists csv))

(* ---- call sites: what the integrators and the reducer tail record ---- *)

(* x' = -x: smooth, linear, converges in one chord iteration per step *)
let decay =
  {
    Ode.Types.dim = 1;
    rhs = (fun _ x -> Vec.scale (-1.0) x);
    jac = Some (fun _ _ -> Mat.diag (Vec.of_array [| -1.0 |]));
  }

let run_rkf45 () =
  Ode.Rkf45.integrate decay ~t0:0.0 ~t1:2.0 ~x0:(Vec.of_array [| 1.0 |])
    ~samples:5 ()

let run_imtrap () =
  Ode.Imtrap.integrate decay ~t0:0.0 ~t1:1.0 ~x0:(Vec.of_array [| 1.0 |])
    ~h:0.1 ~samples:5 ()

let ode_counters () =
  List.map Obs.Metrics.get
    Obs.Metrics.[ Ode_step; Ode_rejected; Newton_iter ]

let ode_deltas before =
  List.map2 (fun a b -> b - a) before (ode_counters ())

let test_rkf45_counted () =
  let before = ode_counters () in
  let sol = run_rkf45 () in
  let st = sol.Ode.Types.stats in
  Alcotest.(check bool) "integration took steps" true (st.Ode.Types.steps > 0);
  Alcotest.(check (list int))
    "Ode_step, Ode_rejected, Newton_iter deltas = the solver's stats"
    [ st.Ode.Types.steps; st.Ode.Types.rejected; 0 ]
    (ode_deltas before);
  Alcotest.(check (float 0.0))
    "the accepted steps reach t1" 2.0
    sol.Ode.Types.times.(Array.length sol.Ode.Types.times - 1)

let test_imtrap_counted () =
  let before = ode_counters () in
  let sol = run_imtrap () in
  let st = sol.Ode.Types.stats in
  Alcotest.(check bool) "one step per h" true (st.Ode.Types.steps >= 10);
  Alcotest.(check bool)
    "at least one Newton iteration per step" true
    (st.Ode.Types.newton_iters >= st.Ode.Types.steps);
  Alcotest.(check (list int))
    "Ode_step, Ode_rejected, Newton_iter deltas = the solver's stats"
    [ st.Ode.Types.steps; 0; st.Ode.Types.newton_iters ]
    (ode_deltas before)

(* Switching recording off stops the counters and nothing else: both
   integrators return bit-identical solutions either way. *)
let test_disabled_call_sites () =
  let on_rk = run_rkf45 () and on_it = run_imtrap () in
  let before = ode_counters () in
  let off_rk, off_it =
    Obs.Metrics.set_enabled false;
    Fun.protect
      ~finally:(fun () -> Obs.Metrics.set_enabled true)
      (fun () -> (run_rkf45 (), run_imtrap ()))
  in
  Alcotest.(check (list int)) "no counter moves while disabled" [ 0; 0; 0 ]
    (ode_deltas before);
  let same name (a : Ode.Types.solution) (b : Ode.Types.solution) =
    Alcotest.(check (array (float 0.0))) (name ^ " times") a.Ode.Types.times
      b.Ode.Types.times;
    Array.iteri
      (fun i x ->
        Alcotest.(check (array (float 0.0)))
          (Printf.sprintf "%s state %d" name i)
          x b.Ode.Types.states.(i))
      a.Ode.Types.states
  in
  same "rkf45" on_rk off_rk;
  same "imtrap" on_it off_it

(* The reducer tail reports its own wall and the order it reached. *)
let test_reduction_tail () =
  let q =
    Circuit.Models.qldae
      (Circuit.Models.nltl ~stages:6 ~source:(`Voltage 1.0) ())
  in
  let r, wall =
    Obs.Clock.time (fun () ->
        Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 3; k2 = 1; k3 = 0 } q)
  in
  let secs = r.Mor.Atmor.reduction_seconds in
  Alcotest.(check bool) "reduction_seconds nonnegative" true (secs >= 0.0);
  Alcotest.(check bool) "reduction_seconds within the call's wall" true
    (secs <= wall);
  Alcotest.(check (option (float 0.0)))
    "reduced_order gauge = basis columns"
    (Some (float_of_int (Mat.cols r.Mor.Atmor.basis)))
    (List.assoc_opt "reduced_order" (Obs.Metrics.gauges ()))

(* A span's start and duration lie inside the wall of the code that
   opened it: the trace is the one record of how long a call took. *)
let test_span_inside_caller_wall () =
  let t0 = ref 0.0 and wall = ref 0.0 in
  let c =
    with_memory_sink (fun () ->
        t0 := Obs.Clock.now ();
        let (), dt =
          Obs.Clock.time (fun () ->
              Obs.Span.with_ ~name:"t.walled" (fun () ->
                  let s = Obs.Clock.now () in
                  while Obs.Clock.now () -. s < 0.001 do
                    ()
                  done))
        in
        wall := dt)
  in
  match c.Obs.Sink.spans with
  | [ s ] ->
    Alcotest.(check bool) "starts after the caller" true (s.Obs.Sink.start >= !t0);
    Alcotest.(check bool) "covers its body" true (s.Obs.Sink.dur >= 0.001);
    Alcotest.(check bool) "ends inside the caller's wall" true
      (s.Obs.Sink.dur <= !wall)
  | spans ->
    Alcotest.failf "expected one span, got %d" (List.length spans)

(* ---- Clock.quantile: exact nearest rank ---- *)

let test_quantile_nearest_rank () =
  let xs = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  let q = Obs.Clock.quantile xs in
  List.iter
    (fun (p, want) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "q=%g" p) want (q p))
    [ (0.0, 1.0); (0.2, 1.0); (0.21, 2.0); (0.5, 3.0); (0.99, 5.0); (1.0, 5.0) ];
  Alcotest.(check (array (float 0.0)))
    "input untouched" [| 5.0; 1.0; 4.0; 2.0; 3.0 |] xs;
  Alcotest.(check bool) "empty gives nan" true
    (Float.is_nan (Obs.Clock.quantile [||] 0.5));
  Alcotest.(check (float 0.0)) "one sample is every quantile" 7.0
    (Obs.Clock.quantile [| 7.0 |] 0.99);
  (* the bench latency pass: 32 walls, p50 the 16th, p99 the 32nd *)
  let walls = Array.init 32 (fun i -> float_of_int (32 - i)) in
  Alcotest.(check (float 0.0)) "p50 of 32" 16.0 (Obs.Clock.quantile walls 0.5);
  Alcotest.(check (float 0.0)) "p99 of 32" 32.0 (Obs.Clock.quantile walls 0.99)

(* Over a fixed pseudo-random stream: the quantile is one of the
   samples, ignores their order, and is monotone in q. *)
let test_quantile_order_free () =
  let x = ref 42 in
  let xs =
    Array.init 2000 (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
        Float.ldexp (1.0 +. (float_of_int (!x land 0xFFFF) /. 65536.0))
          (((!x lsr 16) mod 20) - 10))
  in
  let rev = Array.init (Array.length xs) (fun i -> xs.(Array.length xs - 1 - i)) in
  let qs = [ 0.0; 0.1; 0.5; 0.9; 0.99; 1.0 ] in
  let vals = List.map (Obs.Clock.quantile xs) qs in
  List.iter2
    (fun p v ->
      Alcotest.(check bool) (Printf.sprintf "q=%g is a sample" p) true
        (Array.exists (Float.equal v) xs);
      Alcotest.(check bool) (Printf.sprintf "q=%g ignores order" p) true
        (Float.equal v (Obs.Clock.quantile rev p)))
    qs vals;
  Alcotest.(check bool) "monotone in q" true
    (List.sort Float.compare vals = vals);
  Alcotest.(check (float 0.0)) "q=0 is the minimum"
    (Array.fold_left Float.min Float.infinity xs) (List.hd vals);
  Alcotest.(check (float 0.0)) "q=1 is the maximum"
    (Array.fold_left Float.max Float.neg_infinity xs)
    (List.nth vals (List.length vals - 1))

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and order" `Quick test_span_nesting;
        Alcotest.test_case "span counters inclusive of children" `Quick
          test_span_counters_inclusive;
        Alcotest.test_case "span emits on exception" `Quick
          test_span_exception_safety;
        Alcotest.test_case "point events" `Quick test_events;
        Alcotest.test_case "counter determinism on NLTL reduce" `Quick
          test_counter_determinism;
        Alcotest.test_case "span counters match metrics deltas" `Quick
          test_span_counters_match_metrics;
        Alcotest.test_case "disabled metrics are no-ops" `Quick
          test_disabled_counters_are_noops;
        Alcotest.test_case "jsonl rendering" `Quick test_jsonl_rendering;
        Alcotest.test_case "jsonl file round-trip" `Quick
          test_jsonl_file_roundtrip;
        Alcotest.test_case "null sink purity" `Quick test_null_sink_purity;
        Alcotest.test_case "disabled-instrumentation overhead, by exact counts" `Quick
          test_disabled_overhead_budget;
        Alcotest.test_case "scope record rejected" `Quick
          test_scope_record_rejected;
        Alcotest.test_case "clock times a thunk" `Quick test_clock_time;
        Alcotest.test_case "VMOR_METRICS is the twin of --metrics" `Quick
          test_metrics_env;
        Alcotest.test_case "one registry slot per counter" `Quick
          test_counter_slots_distinct;
      ] );
    ( "obs.call_sites",
      [
        Alcotest.test_case "rkf45 steps counted" `Quick test_rkf45_counted;
        Alcotest.test_case "imtrap steps and Newton iterations counted" `Quick
          test_imtrap_counted;
        Alcotest.test_case "disabled recording leaves solutions alone" `Quick
          test_disabled_call_sites;
        Alcotest.test_case "reduction wall and reduced_order gauge" `Quick
          test_reduction_tail;
        Alcotest.test_case "span inside its caller's wall" `Quick
          test_span_inside_caller_wall;
        Alcotest.test_case "quantile is exact nearest rank" `Quick
          test_quantile_nearest_rank;
        Alcotest.test_case "quantile ignores order, monotone in q" `Quick
          test_quantile_order_free;
      ] );
    ( "facade",
      [
        Alcotest.test_case "Options path = direct Mor.Atmor call" `Quick
          test_facade_options_equivalence;
        Alcotest.test_case "method dispatch (norm, multipoint)" `Quick
          test_facade_method_dispatch;
        Alcotest.test_case "compare_transient covers all output channels"
          `Quick test_compare_transient_all_channels;
      ] );
  ]
