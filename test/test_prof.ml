(* Tests for the profiling layer: per-span GC/allocation capture
   (Obs.Prof), exclusive-time/allocation attribution, the Chrome
   trace-event and folded-stack exporters, the zero-denominator guard
   in trace diffs, Obs.Json rendering edge cases, the GC band of the
   bench gate, and the `vmor report` command that reads a trace back. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_memory_sink f =
  let sink, captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect ~finally:(fun () -> Obs.Sink.set Obs.Sink.null) (fun () -> f ());
  captured ()

let contains hay needle =
  let nl = String.length needle and l = String.length hay in
  let rec go i =
    i + nl <= l && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

(* ---- Prof capture on spans ---- *)

let test_span_prof_capture () =
  let c =
    with_memory_sink (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner" (fun () ->
                (* allocate something the minor counter must see *)
                ignore (Sys.opaque_identity (Array.make 10_000 0.0)))))
  in
  let find name =
    List.find
      (fun (s : Obs.Sink.span_record) -> String.equal s.name name)
      c.Obs.Sink.spans
  in
  let prof name =
    match (find name).Obs.Sink.prof with
    | Some p -> p
    | None -> Alcotest.failf "span %s carries no prof" name
  in
  let inner = prof "inner" and outer = prof "outer" in
  check_bool "inner span sees the allocation" true
    (Obs.Prof.alloc_words inner >= 10_000.0);
  (* parent deltas are inclusive of the child *)
  check_bool "outer minor_words >= inner's" true
    (outer.Obs.Prof.minor_words >= inner.Obs.Prof.minor_words);
  check_bool "heap absolutes are positive" true (inner.Obs.Prof.heap_words > 0)

(* A record without prof (as parsed from a trace that predates prof
   capture) renders no prof.* members. *)
let test_prof_absent_renders_nothing () =
  let j =
    Obs.Sink.record_to_json
      { Obs.Sink.name = "quiet"; depth = 0; start = 0.0; dur = 0.1;
        counters = []; cost = []; prof = None }
  in
  check_bool "no prof fields rendered" false (contains j "prof.")

let test_prof_jsonl_roundtrip () =
  let p =
    {
      Obs.Prof.minor_words = 12345.0;
      promoted_words = 100.0;
      major_words = 230.0;
      minor_collections = 3;
      major_collections = 1;
      heap_words = 65536;
      top_heap_words = 131072;
    }
  in
  let j =
    Obs.Sink.record_to_json
      { Obs.Sink.name = "k"; depth = 0; start = 1.0; dur = 0.5;
        counters = [ ("matvec", 7) ]; cost = [ ("flops_matvec", 840) ]; prof = Some p }
  in
  match Obs.Trace.parse_line j with
  | Obs.Trace.Span s -> (
    match s.Obs.Sink.prof with
    | Some q ->
      check_bool "prof round-trips through JSONL" true (q = p);
      Alcotest.(check (list (pair string int)))
        "counters survive alongside prof" [ ("matvec", 7) ] s.Obs.Sink.counters
    | None -> Alcotest.fail "prof lost in round-trip")
  | _ -> Alcotest.fail "expected a span record"

(* ---- attribution ---- *)

(* Hand-built trace: root (dur 1.0) with children a (0.3, called twice)
   and b (0.2); a's first call has a grandchild g (0.1).  Emission
   order is close order: deepest first. *)
let synthetic_records () =
  let prof minor major =
    Some
      {
        Obs.Prof.minor_words = minor;
        promoted_words = 0.0;
        major_words = major;
        minor_collections = 0;
        major_collections = 0;
        heap_words = 1000;
        top_heap_words = 2000;
      }
  in
  let span name depth start dur prof =
    Obs.Trace.Span { Obs.Sink.name; depth; start; dur; counters = []; cost = []; prof }
  in
  [
    span "g" 2 0.05 0.1 (prof 100.0 10.0);
    span "a" 1 0.0 0.3 (prof 400.0 40.0);
    span "a" 1 0.35 0.3 (prof 300.0 30.0);
    span "b" 1 0.7 0.2 (prof 200.0 20.0);
    span "root" 0 0.0 1.0 (prof 1000.0 100.0);
  ]

let test_attribution () =
  let t = Obs.Trace.of_records (synthetic_records ()) in
  let attribs = Obs.Trace.attribution t in
  let get name =
    List.find (fun (a : Obs.Trace.attrib) -> String.equal a.span name) attribs
  in
  let approx = Alcotest.(check (float 1e-9)) in
  let root = get "root" and a = get "a" and b = get "b" and g = get "g" in
  check_int "root called once" 1 root.calls;
  check_int "a called twice" 2 a.calls;
  approx "root inclusive" 1.0 root.incl_s;
  (* root exclusive = 1.0 - (0.3 + 0.3 + 0.2) *)
  approx "root exclusive" 0.2 root.excl_s;
  (* a inclusive over both calls; first call loses g's 0.1 *)
  approx "a inclusive" 0.6 a.incl_s;
  approx "a exclusive" 0.5 a.excl_s;
  approx "b exclusive = inclusive (leaf)" b.incl_s b.excl_s;
  approx "g exclusive" 0.1 g.excl_s;
  (* allocation attribution follows the same self-minus-children rule *)
  approx "root excl minor words" 100.0 root.excl_minor_words;
  approx "a excl minor words" 600.0 a.excl_minor_words;
  approx "root excl major words" 10.0 root.excl_major_words;
  (* sorted by exclusive time descending *)
  (match attribs with
  | first :: _ -> check_string "hottest first" "a" first.span
  | [] -> Alcotest.fail "no attribution rows");
  let hot = Obs.Trace.render_hot ~top:2 t in
  check_bool "hot table lists the top span" true (contains hot "a");
  check_bool "hot table honors top" true (contains hot "top 2 of 4")

(* ---- Chrome trace-event export ---- *)

let test_chrome_export () =
  let t = Obs.Trace.of_records (synthetic_records ()) in
  let s = Obs.Trace.chrome_string t in
  let j = Obs.Json.parse s in
  (* must validate structurally... *)
  Obs.Trace.validate_chrome j;
  (* ...and carry the fields Perfetto needs on every event *)
  let events = Obs.Json.(to_arr (member_exn "traceEvents" j)) in
  check_int "one event per span" 5 (List.length events);
  List.iter
    (fun ev ->
      let str k = Obs.Json.(to_str (member_exn k ev)) in
      let num k = Obs.Json.(to_num (member_exn k ev)) in
      check_string "complete event" "X" (str "ph");
      check_bool "ts normalized and finite" true (num "ts" >= 0.0);
      check_bool "dur nonnegative" true (num "dur" >= 0.0);
      Alcotest.(check (float 0.0)) "pid" 1.0 (num "pid");
      Alcotest.(check (float 0.0)) "tid" 1.0 (num "tid");
      check_bool "prof rides in args" true
        (Obs.Json.member "prof.minor_words" (Obs.Json.member_exn "args" ev)
        <> None))
    events;
  (* events are sorted by ts *)
  let ts =
    List.map (fun ev -> Obs.Json.(to_num (member_exn "ts" ev))) events
  in
  check_bool "sorted by ts" true (List.sort compare ts = ts);
  (* validator rejects broken inputs *)
  let rejects src =
    match Obs.Trace.validate_chrome (Obs.Json.parse src) with
    | exception Obs.Trace.Malformed _ -> true
    | () -> false
  in
  check_bool "rejects empty traceEvents" true (rejects {|{"traceEvents":[]}|});
  check_bool "rejects missing ph" true
    (rejects {|{"traceEvents":[{"name":"x","ts":0,"pid":1,"tid":1}]}|});
  check_bool "rejects X without dur" true
    (rejects
       {|{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}|})

let test_chrome_includes_events () =
  let records =
    Obs.Trace.Event
      { Obs.Sink.name = "recovery"; depth = 1; time = 0.5; detail = "nudge" }
    :: synthetic_records ()
  in
  let j = Obs.Trace.to_chrome (Obs.Trace.of_records records) in
  Obs.Trace.validate_chrome j;
  let events = Obs.Json.(to_arr (member_exn "traceEvents" j)) in
  check_int "spans + instant event" 6 (List.length events);
  check_bool "instant event present" true
    (List.exists
       (fun ev -> Obs.Json.(to_str (member_exn "ph" ev)) = "i")
       events)

(* ---- folded stacks ---- *)

let test_folded_sums () =
  let t = Obs.Trace.of_records (synthetic_records ()) in
  let folded = Obs.Trace.to_folded t in
  let lines =
    String.split_on_char '\n' folded
    |> List.filter (fun l -> String.length l > 0)
  in
  let parse_line l =
    match String.rindex_opt l ' ' with
    | Some i ->
      ( String.sub l 0 i,
        int_of_string (String.sub l (i + 1) (String.length l - i - 1)) )
    | None -> Alcotest.failf "bad folded line %S" l
  in
  let rows = List.map parse_line lines in
  check_bool "nested stacks are ;-joined" true
    (List.mem_assoc "root;a;g" rows);
  (* counts sum to the total root inclusive time in microseconds *)
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 rows in
  check_int "counts sum to total inclusive us" 1_000_000 total;
  (* names are sanitized: spaces and semicolons can't corrupt stacks *)
  let messy =
    Obs.Trace.of_records
      [
        Obs.Trace.Span
          { Obs.Sink.name = "a b;c"; depth = 0; start = 0.0; dur = 0.001;
            counters = []; cost = []; prof = None };
      ]
  in
  check_bool "sanitized name" true
    (contains (Obs.Trace.to_folded messy) "a_b:c 1000")

(* ---- diff zero-denominator guard ---- *)

let test_diff_zero_guard () =
  let trace counters =
    Obs.Trace.of_records
      [
        Obs.Trace.Span
          { Obs.Sink.name = "run"; depth = 0; start = 0.0; dur = 0.5;
            counters; cost = []; prof = None };
      ]
  in
  (* counter present in both traces but zero in the old one: the
     percent column must say n/a, never inf/nan *)
  let diff =
    Obs.Trace.render_diff (trace [ ("matvec", 0) ]) (trace [ ("matvec", 7) ])
  in
  check_bool "zero-baseline delta is n/a" true (contains diff "n/a");
  check_bool "no inf leaks" false (contains diff "inf");
  check_bool "no nan leaks" false (contains diff "nan");
  (* 0 -> 0 is a legitimate equality *)
  let same =
    Obs.Trace.render_diff (trace [ ("matvec", 0) ]) (trace [ ("matvec", 0) ])
  in
  check_bool "zero to zero renders =" true (contains same "=")

(* ---- Obs.Json rendering edge cases ---- *)

let test_json_escapes () =
  let rt s =
    match Obs.Json.parse (Printf.sprintf "\"%s\"" (Obs.Json.escape s)) with
    | Obs.Json.Str s' -> s'
    | _ -> Alcotest.fail "expected string"
  in
  check_string "control chars via \\u" "a\001b" (rt "a\001b");
  check_string "backslash" {|a\b|} (rt {|a\b|});
  check_string "quote" {|a"b|} (rt {|a"b|});
  check_string "newline tab cr" "a\n\t\rb" (rt "a\n\t\rb");
  (* the parser also accepts the optional \/ escape *)
  (match Obs.Json.parse {|"a\/b"|} with
  | Obs.Json.Str s -> check_string "solidus escape parses" "a/b" s
  | _ -> Alcotest.fail "expected string");
  (* render escapes through the full value renderer too *)
  check_string "render escapes strings" {|{"k\n":"v\""}|}
    (Obs.Json.render (Obs.Json.Obj [ ("k\n", Obs.Json.Str "v\"") ]))

let test_json_float_strings () =
  let rt f =
    match Obs.Json.parse (Obs.Json.float_string f) with
    | Obs.Json.Num f' -> f'
    | Obs.Json.Null -> Float.nan
    | _ -> Alcotest.fail "expected number"
  in
  let exact f =
    check_bool (Printf.sprintf "%h round-trips" f) true (rt f = f)
  in
  exact 0.0;
  exact 1.0;
  exact (-42.0);
  exact 0.1;
  exact 1e-300;
  exact 1.7976931348623157e308;
  exact 123456789.123456;
  exact 4.9e-324 (* denormal min *);
  check_string "integers render plainly" "42" (Obs.Json.float_string 42.0);
  check_string "huge integers keep exponent form" "1e+20"
    (Obs.Json.float_string 1e20);
  check_string "nan renders null" "null" (Obs.Json.float_string Float.nan);
  check_string "inf renders null" "null" (Obs.Json.float_string Float.infinity);
  (* exponent literals parse *)
  (match Obs.Json.parse "[1e3, -2.5E-2, 3.0e+0]" with
  | Obs.Json.Arr [ Obs.Json.Num a; Obs.Json.Num b; Obs.Json.Num c ] ->
    Alcotest.(check (float 0.0)) "1e3" 1000.0 a;
    Alcotest.(check (float 0.0)) "-2.5E-2" (-0.025) b;
    Alcotest.(check (float 0.0)) "3.0e+0" 3.0 c
  | _ -> Alcotest.fail "expected 3-element array")

let test_json_deep_nesting () =
  let depth = 500 in
  let rec build n = if n = 0 then Obs.Json.Num 7.0 else Obs.Json.Arr [ build (n - 1) ] in
  let v = build depth in
  let s = Obs.Json.render v in
  let v' = Obs.Json.parse s in
  check_bool "deeply nested arrays round-trip" true (v = v');
  let rec depth_of = function
    | Obs.Json.Arr [ x ] -> 1 + depth_of x
    | _ -> 0
  in
  check_int "depth preserved" depth (depth_of v')

let test_json_render_parse_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("bools", Obs.Json.Arr [ Obs.Json.Bool true; Obs.Json.Bool false ]);
        ("nums", Obs.Json.Arr [ Obs.Json.Num 0.5; Obs.Json.Num (-3.0) ]);
        ("nested", Obs.Json.Obj [ ("s", Obs.Json.Str "x\ty") ]);
        ("empty_obj", Obs.Json.Obj []);
        ("empty_arr", Obs.Json.Arr []);
      ]
  in
  check_bool "render/parse round-trip" true
    (Obs.Json.parse (Obs.Json.render v) = v)

(* ---- bench gate: gc bands ---- *)

let gc_bench ?gc () =
  let gc_member =
    match gc with
    | None -> ""
    | Some (minor, major) ->
      Printf.sprintf {|"gc": {"minor_words": %.0f, "major_words": %.0f},|}
        minor major
  in
  Printf.sprintf
    {|{
  "scale": 0.25,
  "experiments": [
    {
      "id": "fig_gc",
      "title": "gc gate test",
      "full_states": 40,
      "wall_seconds": 1.0,
      "counters": {"lu_factor": 100},
      %s
      "roms": []
    }
  ]
}|}
    gc_member

let gate old_s new_s =
  Gatecheck.check ~ignore_wall:true ~baseline:(Gatecheck.parse old_s)
    ~fresh:(Gatecheck.parse new_s) ()

let test_gate_gc_band () =
  let base = gc_bench ~gc:(1_000_000.0, 50_000.0) () in
  check_int "identical gc passes" 0
    (List.length (gate base (gc_bench ~gc:(1_000_000.0, 50_000.0) ())));
  check_int "gc within 25% passes" 0
    (List.length (gate base (gc_bench ~gc:(1_200_000.0, 55_000.0) ())));
  check_int "minor_words jump fails" 1
    (List.length (gate base (gc_bench ~gc:(1_300_000.0, 50_000.0) ())));
  check_int "major_words collapse fails" 1
    (List.length (gate base (gc_bench ~gc:(1_000_000.0, 10_000.0) ())));
  check_int "both gc words out of band" 2
    (List.length (gate base (gc_bench ~gc:(2_000_000.0, 200_000.0) ())));
  (* structural presence: a gc block may not silently (dis)appear *)
  check_int "gc disappearing fails" 1
    (List.length (gate base (gc_bench ())));
  check_int "gc appearing fails (refresh baseline)" 1
    (List.length (gate (gc_bench ()) base));
  check_int "gc absent on both sides passes" 0
    (List.length (gate (gc_bench ()) (gc_bench ())))

(* ---- truncated traces: attribution (and so the diff) sees orphans ---- *)

let test_truncated_trace_fold () =
  let span name depth dur =
    Obs.Trace.Span
      { Obs.Sink.name; depth; start = 0.0; dur; counters = []; cost = [];
        prof = None }
  in
  (* the depth-0 root never closed, and "lone" has no closed parent:
     "mid" and "lone" are orphan roots, "leaf" sits under "mid" *)
  let t =
    Obs.Trace.of_records
      [ span "leaf" 2 0.1; span "mid" 1 0.3; span "lone" 2 0.05 ]
  in
  check_int "two orphan roots" 2 (List.length t.Obs.Trace.roots);
  let rows = Obs.Trace.attribution t in
  check_int "every span record counted once" (List.length t.Obs.Trace.spans)
    (List.fold_left (fun acc a -> acc + a.Obs.Trace.calls) 0 rows);
  let diff = Obs.Trace.render_diff t t in
  List.iter
    (fun row -> check_bool ("diff row " ^ row) true (contains diff row))
    [ "leaf"; "   0.100/1"; "mid"; "   0.300/1"; "lone"; "   0.050/1" ]

(* ---- vmor report: the one trace reader, end to end ---- *)

let test_report_cli () =
  let tmp suffix = Filename.temp_file "vmor_report" suffix in
  let trace = tmp ".jsonl" and chrome = tmp ".json" and folded = tmp ".txt"
  and out = tmp ".log" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ trace; chrome; folded; out ])
    (fun () ->
      let run args =
        Sys.command
          (Printf.sprintf "env -u VMOR_DEADLINE -u VMOR_TRACE %s %s > %s 2>&1"
             (Filename.quote Build_tree.vmor_cli) args (Filename.quote out))
      in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let code =
        run
          (Printf.sprintf
             "compare --model nltl-v --scale 0.1 --orders 3,1,0 --trace %s"
             (Filename.quote trace))
      in
      (* 4 = ROM produced but degraded: still a complete trace *)
      check_bool "compare exit 0 or 4" true (code = 0 || code = 4);
      check_int "report exit code" 0
        (run
           (Printf.sprintf "report %s --chrome %s --folded %s"
              (Filename.quote trace) (Filename.quote chrome)
              (Filename.quote folded)));
      let text = read out in
      check_bool "tree lists the reduction span" true
        (contains text "atmor.reduce");
      check_bool "hot kernels header" true
        (contains text "hot kernels (exclusive time");
      check_bool "numerical health block" true
        (contains text "numerical health");
      Obs.Trace.validate_chrome (Obs.Json.parse (read chrome));
      check_bool "folded stacks non-empty" true
        (String.length (read folded) > 0))

(* a trace is outside input: a malformed or missing file is a usage
   error (exit 2) naming the file, never a backtrace *)
let test_report_rejects_bad_trace () =
  let bad = Filename.temp_file "vmor_report" ".jsonl"
  and out = Filename.temp_file "vmor_report" ".log" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ bad; out ])
    (fun () ->
      Out_channel.with_open_bin bad (fun oc ->
          output_string oc "{\"type\":\"span\"\n");
      List.iter
        (fun path ->
          let code =
            Sys.command
              (Printf.sprintf "%s report %s > %s 2>&1"
                 (Filename.quote Build_tree.vmor_cli)
                 (Filename.quote path) (Filename.quote out))
          in
          check_int ("exit code for " ^ path) 2 code;
          check_bool "message names the file" true
            (contains
               (In_channel.with_open_bin out In_channel.input_all)
               (Filename.basename path)))
        [ bad; bad ^ ".missing" ])

let suite =
  [
    ( "prof",
      [
        Alcotest.test_case "span prof capture and inclusivity" `Quick
          test_span_prof_capture;
        Alcotest.test_case "prof-less record renders no prof fields" `Quick
          test_prof_absent_renders_nothing;
        Alcotest.test_case "prof JSONL round-trip" `Quick
          test_prof_jsonl_roundtrip;
        Alcotest.test_case "exclusive attribution math" `Quick test_attribution;
        Alcotest.test_case "chrome export validates and re-parses" `Quick
          test_chrome_export;
        Alcotest.test_case "chrome export carries instant events" `Quick
          test_chrome_includes_events;
        Alcotest.test_case "folded stacks sum to inclusive total" `Quick
          test_folded_sums;
        Alcotest.test_case "diff guards zero baselines with n/a" `Quick
          test_diff_zero_guard;
        Alcotest.test_case "json string escapes" `Quick test_json_escapes;
        Alcotest.test_case "json float forms round-trip" `Quick
          test_json_float_strings;
        Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
        Alcotest.test_case "json render/parse round-trip" `Quick
          test_json_render_parse_roundtrip;
        Alcotest.test_case "bench gate gc bands" `Quick test_gate_gc_band;
        Alcotest.test_case "vmor report tree, exports and health" `Quick
          test_report_cli;
        Alcotest.test_case "truncated trace: orphans in attribution and diff"
          `Quick test_truncated_trace_fold;
        Alcotest.test_case "vmor report rejects a bad trace with exit 2" `Quick
          test_report_rejects_bad_trace;
      ] );
  ]
