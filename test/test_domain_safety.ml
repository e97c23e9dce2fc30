(* Tests for the domain-safety layer, both sides of it:

   - the analyzer (tools/lint lint_core): the toplevel-mutable and
     unsync-global-write AST rules on seeded in-memory sources, and the
     interprocedural taint fixpoint on a diamond call graph;
   - the certified runtime (lib/obs, lib/contract after the per-domain
     refactor): merged counters equal the serial sum after four domains
     race on Metrics/spans, gauge merges, and the
     contract toggle under concurrent flips. *)

let findings src =
  Lint_core.lint_source ~path:"lib/x/m.ml" src
  |> List.map (fun (v : Lint_core.violation) -> (v.line, v.rule))

let rule_only rule src = List.filter (fun (_, r) -> r = rule) (findings src)

(* ---- toplevel-mutable rule ---- *)

let test_toplevel_mutable_positives () =
  let src =
    "let hits = ref 0\n" (* 1 *)
    ^ "let tbl : (string, int) Hashtbl.t = Hashtbl.create 8\n" (* 2 *)
    ^ "let scratch = Array.make 4 0.0\n" (* 3 *)
    ^ "let buf = Buffer.create 64\n" (* 4 *)
    ^ "let banner = lazy (print_string \"hi\")\n" (* 5 *)
    ^ "type cell = { mutable v : int }\n" (* 6 *)
    ^ "let shared = { v = 0 }\n" (* 7 *)
  in
  Alcotest.(check (list (pair int string)))
    "every mutable kind is flagged at its binding line"
    [ (1, "toplevel-mutable"); (2, "toplevel-mutable");
      (3, "toplevel-mutable"); (4, "toplevel-mutable");
      (5, "toplevel-mutable"); (7, "toplevel-mutable") ]
    (rule_only "toplevel-mutable" src)

let test_toplevel_mutable_negatives () =
  let src =
    "let mu = Mutex.create ()\n"
    ^ "let total = Atomic.make 0\n"
    ^ "let slot = Domain.DLS.new_key (fun () -> ref 0)\n"
    ^ "let guarded = ref [] [@@vmor.sync \"guarded by mu\"]\n"
    ^ "let local_ok () = let r = ref 0 in incr r; !r\n"
  in
  Alcotest.(check (list (pair int string)))
    "Mutex/Atomic/DLS/annotated/local bindings are exempt" []
    (rule_only "toplevel-mutable" src)

(* ---- unsync-global-write rule ---- *)

let test_unsync_write_positives () =
  let src =
    "let hits = ref 0\n" (* 1 *)
    ^ "let tbl : (string, int) Hashtbl.t = Hashtbl.create 8\n" (* 2 *)
    ^ "let guarded = ref 0 [@@vmor.sync \"guarded by mu\"]\n" (* 3 *)
    ^ "let bump () = hits := !hits + 1\n" (* 4 *)
    ^ "let record k = Hashtbl.replace tbl k 1\n" (* 5 *)
    ^ "let cheat () = guarded := 7\n" (* 6 *)
  in
  Alcotest.(check (list (pair int string)))
    "writes from functions are flagged, even on annotated bindings"
    [ (4, "unsync-global-write"); (5, "unsync-global-write");
      (6, "unsync-global-write") ]
    (rule_only "unsync-global-write" src)

let test_unsync_write_negatives () =
  let src =
    "let mu = Mutex.create ()\n"
    ^ "let guarded = ref [] [@@vmor.sync \"guarded by mu\"]\n"
    ^ "let tbl : (string, int) Hashtbl.t = Hashtbl.create 8\n"
    ^ "let () = Hashtbl.replace tbl \"boot\" 0\n" (* module init *)
    ^ "let ok_push x = Mutex.protect mu (fun () -> guarded := x :: !guarded)\n"
    ^ "let ok_local () = let r = ref 0 in r := 1; !r\n"
  in
  Alcotest.(check (list (pair int string)))
    "Mutex.protect bodies, module init and locals are not writes" []
    (rule_only "unsync-global-write" src)

(* ---- interprocedural fixpoint on a diamond call graph ---- *)

let test_diamond_fixpoint () =
  let a =
    "let state = ref 0\n"
    ^ "let poke n = state := n\n"
    ^ "let peek () = !state\n"
    ^ "let pure n = n + 1\n"
  in
  let a_mli =
    "val poke : int -> unit\nval peek : unit -> int\nval pure : int -> int\n"
  in
  let b = "let via_poke n = A.poke (A.pure n)\n" in
  let c = "let via_peek () = A.peek () + 1\n" in
  let d =
    "let diamond n = B.via_poke n; C.via_peek ()\n"
    ^ "let read_only () = C.via_peek () + A.pure 0\n"
  in
  let inv =
    Lint_core.classify_sources
      [ ("lib/ds/a.ml", a, Some a_mli);
        ("lib/ds/b.ml", b, None);
        ("lib/ds/c.ml", c, None);
        ("lib/ds/d.ml", d, None) ]
  in
  let cls v =
    let _, _, c, via = List.find (fun (_, n, _, _) -> n = v) inv in
    (c, via)
  in
  (* base facts *)
  Alcotest.(check (pair string string)) "poke writes"
    ("writes_shared", "state") (cls "poke");
  Alcotest.(check (pair string string)) "peek reads"
    ("reads_shared", "state") (cls "peek");
  Alcotest.(check (pair string string)) "pure safe" ("domain_safe", "")
    (cls "pure");
  (* one propagation hop *)
  Alcotest.(check (pair string string)) "write taint crosses modules"
    ("writes_shared", "state") (cls "via_poke");
  Alcotest.(check (pair string string)) "read taint crosses modules"
    ("reads_shared", "state") (cls "via_peek");
  (* the diamond join: writes must win over reads *)
  Alcotest.(check (pair string string)) "diamond joins to writes"
    ("writes_shared", "state") (cls "diamond");
  Alcotest.(check (pair string string)) "read-only path stays reads"
    ("reads_shared", "state") (cls "read_only")

(* ---- runtime: four domains racing on the certified Obs layer ---- *)

(* Deterministic per-domain workload derived from a fixed seed: domain
   [d] performs [plan.(d)] increments of Matvec and one Ode_step per
   outer round, under a traced span.  The expected totals are computed
   serially from the same plan, so the assertion is exact — merge
   happens after every [Domain.join], which orders all child stores
   before the read. *)
let test_four_domain_merge () =
  let n_domains = 4 and rounds = 50 in
  let st = Random.State.make [| 0x5eed; 42 |] in
  let plan =
    Array.init n_domains (fun _ -> 1 + Random.State.int st 17)
  in
  Obs.Cost.charge Obs.Cost.Flops_axpy 7;
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes cost counters" 0
    (Obs.Cost.get Obs.Cost.Flops_axpy);
  let before_matvec = Obs.Metrics.get Obs.Metrics.Matvec in
  let before_steps = Obs.Metrics.get Obs.Metrics.Ode_step in
  let worker d () =
    for _round = 1 to rounds do
      Obs.Span.with_ ~name:(Printf.sprintf "domain-%d" d) (fun () ->
          for _i = 1 to plan.(d) do
            Obs.Metrics.incr Obs.Metrics.Matvec
          done;
          Obs.Metrics.incr Obs.Metrics.Ode_step)
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let expected_matvec =
    rounds * Array.fold_left ( + ) 0 plan
  in
  Alcotest.(check int) "merged matvec = serial sum"
    (before_matvec + expected_matvec)
    (Obs.Metrics.get Obs.Metrics.Matvec);
  Alcotest.(check int) "merged ode steps = domains x rounds"
    (before_steps + (n_domains * rounds))
    (Obs.Metrics.get Obs.Metrics.Ode_step);
  (* snapshot/since see the same merged view *)
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (list (pair string int)))
    "since a post-join snapshot is empty" []
    (List.map
       (fun (c, n) -> (Obs.Metrics.name c, n))
       (Obs.Metrics.since snap));
  Obs.Metrics.reset ()

let test_gauge_merge () =
  Obs.Metrics.reset ();
  let n_domains = 4 and per_domain = 25 in
  let worker d () =
    for _ = 1 to per_domain do
      Obs.Metrics.set_gauge (Printf.sprintf "ds_gauge_%d" d) (float_of_int d)
    done
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  Alcotest.(check int) "one gauge per domain survives" n_domains
    (List.length
       (List.filter
          (fun (k, _) -> String.length k >= 8 && String.sub k 0 8 = "ds_gauge")
          (Obs.Metrics.gauges ())));
  Obs.Metrics.reset ()

(* Span depth is domain-local: concurrent nested spans must each see
   their own 0/1 depths, never a neighbour's.  The sink is shared, so
   the test wraps the memory sink in a mutex — the documented
   discipline for multi-domain tracing. *)
let test_concurrent_span_depth () =
  let sink, captured = Obs.Sink.memory () in
  let mu = Mutex.create () in
  let locked =
    {
      Obs.Sink.on_span =
        (fun r -> Mutex.protect mu (fun () -> sink.Obs.Sink.on_span r));
      on_event =
        (fun r -> Mutex.protect mu (fun () -> sink.Obs.Sink.on_event r));
      flush = sink.Obs.Sink.flush;
    }
  in
  Obs.Sink.set locked;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set Obs.Sink.null)
    (fun () ->
      let worker d () =
        for _i = 1 to 20 do
          Obs.Span.with_ ~name:(Printf.sprintf "outer-%d" d) (fun () ->
              Obs.Span.with_ ~name:(Printf.sprintf "inner-%d" d) (fun () ->
                  ()))
        done
      in
      let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
      List.iter Domain.join domains);
  let c = captured () in
  Alcotest.(check int) "all spans captured" (4 * 20 * 2)
    (List.length c.Obs.Sink.spans);
  List.iter
    (fun (s : Obs.Sink.span_record) ->
      let expect =
        if String.length s.name >= 5 && String.sub s.name 0 5 = "inner" then 1
        else 0
      in
      Alcotest.(check int)
        (Printf.sprintf "%s depth" s.name)
        expect s.depth)
    c.Obs.Sink.spans

let test_contract_toggle_concurrent () =
  let initial = Contract.checks_enabled () in
  let flipper () =
    for _i = 1 to 200 do
      Contract.set_checks (Some true);
      Contract.set_checks (Some false)
    done
  in
  let reader () =
    for _i = 1 to 200 do
      (* must never crash or read a torn value: the result is always a
         well-formed bool *)
      ignore (Contract.checks_enabled () : bool)
    done
  in
  let ds =
    [ Domain.spawn flipper; Domain.spawn reader; Domain.spawn reader ]
  in
  List.iter Domain.join ds;
  Contract.set_checks None;
  Alcotest.(check bool) "toggle restored" initial (Contract.checks_enabled ())

let suite =
  [
    ( "domain_safety",
      [
        Alcotest.test_case "toplevel-mutable positives" `Quick
          test_toplevel_mutable_positives;
        Alcotest.test_case "toplevel-mutable negatives" `Quick
          test_toplevel_mutable_negatives;
        Alcotest.test_case "unsync-global-write positives" `Quick
          test_unsync_write_positives;
        Alcotest.test_case "unsync-global-write negatives" `Quick
          test_unsync_write_negatives;
        Alcotest.test_case "diamond call-graph fixpoint" `Quick
          test_diamond_fixpoint;
        Alcotest.test_case "4-domain counter merge" `Quick
          test_four_domain_merge;
        Alcotest.test_case "gauge merge" `Quick test_gauge_merge;
        Alcotest.test_case "concurrent span depth isolation" `Quick
          test_concurrent_span_depth;
        Alcotest.test_case "contract toggle under contention" `Quick
          test_contract_toggle_concurrent;
      ] );
  ]
