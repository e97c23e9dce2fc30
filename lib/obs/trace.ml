(* Reading and analyzing JSONL traces.

   The inverse of [Sink.jsonl]: parse a trace back into span/event
   records, rebuild the span hierarchy (spans are emitted when they
   close, so children precede parents and nesting is recovered from
   the recorded depths), and render the views behind [vmor report]: a
   where-the-time-went tree, a hot-kernels table, a numerical-health
   summary, a diff of two runs, and the Chrome and folded-stack
   exports.  All renderers return strings; printing is the caller's
   business. *)

type record =
  | Span of Sink.span_record
  | Event of Sink.event_record

type item = Node of Sink.span_record * item list | Leaf of Sink.event_record

type t = {
  roots : item list;
  spans : Sink.span_record list;  (* emission order *)
  events : Sink.event_record list;  (* emission order *)
}

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing.                                                           *)

let record_of_json j : record =
  match Json.(to_str (member_exn "type" j)) with
  | "span" ->
    let counters =
      Json.(to_obj (member_exn "counters" j))
      |> List.map (fun (k, v) -> (k, Json.to_int v))
    in
    (* GC telemetry and cost deltas ride as flat prof.*/cost.* members;
       traces written before either layer existed simply have none, and
       Prof.of_fields maps no prof.* members to None. *)
    let flat prefix =
      let n = String.length prefix in
      Json.to_obj j
      |> List.filter_map (fun (k, v) ->
             if String.length k > n && String.sub k 0 n = prefix then
               match v with
               | Json.Num f -> Some (String.sub k n (String.length k - n), f)
               | _ -> None
             else None)
    in
    Span
      {
        Sink.name = Json.(to_str (member_exn "name" j));
        depth = Json.(to_int (member_exn "depth" j));
        start = Json.(to_num (member_exn "start" j));
        dur = Json.(to_num (member_exn "dur" j));
        counters;
        cost = List.map (fun (k, f) -> (k, int_of_float f)) (flat "cost.");
        prof = Prof.of_fields (flat "prof.");
      }
  | "event" ->
    Event
      {
        Sink.name = Json.(to_str (member_exn "name" j));
        depth = Json.(to_int (member_exn "depth" j));
        time = Json.(to_num (member_exn "time" j));
        detail = Json.(to_str (member_exn "detail" j));
      }
  | other -> malformed "unknown record type %S" other

let parse_line line =
  match record_of_json (Json.parse line) with
  | r -> r
  | exception Json.Parse_error m -> malformed "%s in %S" m line

(* Rebuild the hierarchy.  A span record at depth [d] closes after all
   its children (spans and events recorded at depth [d+1]) have been
   emitted, so a single pass with one pending-items bucket per depth
   recovers the tree.  Items still pending at the end (a truncated
   trace) are kept as extra roots rather than dropped. *)
let build (records : record list) : item list =
  let pending : (int, item list ref) Hashtbl.t = Hashtbl.create 8 in
  let bucket d =
    match Hashtbl.find_opt pending d with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add pending d r;
      r
  in
  List.iter
    (fun r ->
      match r with
      | Event e ->
        let b = bucket e.Sink.depth in
        b := Leaf e :: !b
      | Span s ->
        let kids =
          match Hashtbl.find_opt pending (s.Sink.depth + 1) with
          | Some r ->
            let k = List.rev !r in
            r := [];
            k
          | None -> []
        in
        let b = bucket s.Sink.depth in
        b := Node (s, kids) :: !b)
    records;
  let roots =
    match Hashtbl.find_opt pending 0 with
    | Some r ->
      let k = List.rev !r in
      r := [];
      k
    | None -> []
  in
  let orphans =
    Hashtbl.fold
      (fun d r acc -> if !r <> [] then (d, List.rev !r) :: acc else acc)
      pending []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.concat_map snd
  in
  roots @ orphans

let of_records records =
  {
    roots = build records;
    spans = List.filter_map (function Span s -> Some s | _ -> None) records;
    events = List.filter_map (function Event e -> Some e | _ -> None) records;
  }

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let records = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then records := parse_line line :: !records
         done
       with End_of_file -> ());
      of_records (List.rev !records))

(* ------------------------------------------------------------------ *)
(* Where-the-time-went tree.                                          *)

let format_counters counters =
  counters
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat " "

(* Point events inside a span are aggregated by name ([health.cond]
   fires once per Kronecker-sum order); recovery events are rare and
   individually meaningful, so those keep their detail line. *)
let render_tree ?(max_depth = max_int) t =
  let b = Buffer.create 1024 in
  let pad depth = String.make (2 * depth) ' ' in
  let rec item depth it =
    if depth <= max_depth then
      match it with
      | Node (s, kids) ->
        Buffer.add_string b
          (Printf.sprintf "%s%-*s %8.3fs  %s\n" (pad depth)
             (max 1 (30 - (2 * depth)))
             s.Sink.name s.Sink.dur
             (format_counters s.Sink.counters));
        let leaves, nodes =
          List.partition (function Leaf _ -> true | Node _ -> false) kids
        in
        let counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun it ->
            match it with
            | Leaf (e : Sink.event_record) ->
              if e.Sink.name = "recovery" then
                Buffer.add_string b
                  (Printf.sprintf "%s! %s %s\n" (pad (depth + 1)) e.Sink.name
                     e.Sink.detail)
              else begin
                if not (Hashtbl.mem counts e.Sink.name) then
                  order := e.Sink.name :: !order;
                Hashtbl.replace counts e.Sink.name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.Sink.name))
              end
            | Node _ -> ())
          leaves;
        List.iter
          (fun name ->
            Buffer.add_string b
              (Printf.sprintf "%s. %s x%d\n" (pad (depth + 1)) name
                 (Hashtbl.find counts name)))
          (List.rev !order);
        List.iter (item (depth + 1)) nodes
      | Leaf e ->
        Buffer.add_string b
          (Printf.sprintf "%s. %s %s\n" (pad depth) e.Sink.name e.Sink.detail)
  in
  List.iter (item 0) t.roots;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Numerical-health summary.                                          *)

let health_records t : Health.record list =
  List.filter_map
    (fun (e : Sink.event_record) ->
      Health.of_event ~name:e.Sink.name ~detail:e.Sink.detail)
    t.events

type health_summary = {
  max_cond : (string * int * float) list;  (* per context: dim, cond *)
  streaks : (string * float * int) list;  (* context, time, length *)
  residuals : (int * float * float) list;  (* k, s0, residual — last per k *)
  freq_worst : (float * float) option;  (* omega, rel_err *)
  freq_samples : int;
  pod : (int * int * float * float) option;  (* retained, total, energy, tail *)
}

let summarize t : health_summary =
  let max_cond : (string, int * float) Hashtbl.t = Hashtbl.create 4
  and streaks = ref []
  and residuals : (int, float * float) Hashtbl.t = Hashtbl.create 4
  and freq_worst = ref None
  and freq_samples = ref 0
  and pod = ref None in
  List.iter
    (fun (r : Health.record) ->
      match r with
      | Health.Cond { context; dim; cond } -> (
        match Hashtbl.find_opt max_cond context with
        | Some (_, c) when c >= cond -> ()
        | _ -> Hashtbl.replace max_cond context (dim, cond))
      | Health.Ode_streak { context; time; length } ->
        streaks := (context, time, length) :: !streaks
      | Health.Moment_residual { k; s0; residual } ->
        Hashtbl.replace residuals k (s0, residual)
      | Health.Freq_error { omega; rel_err } ->
        incr freq_samples;
        (match !freq_worst with
        | Some (_, worst) when worst >= rel_err -> ()
        | _ -> freq_worst := Some (omega, rel_err))
      | Health.Pod_spectrum { retained; total; energy; tail } ->
        pod := Some (retained, total, energy, tail))
    (health_records t);
  {
    max_cond =
      Hashtbl.fold (fun ctx (d, c) acc -> (ctx, d, c) :: acc) max_cond []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b);
    streaks = List.rev !streaks;
    residuals =
      Hashtbl.fold (fun k (s0, r) acc -> (k, s0, r) :: acc) residuals []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b);
    freq_worst = !freq_worst;
    freq_samples = !freq_samples;
    pod = !pod;
  }

let render_health t =
  let s = summarize t in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun m -> Buffer.add_string b (m ^ "\n")) fmt in
  line "numerical health";
  line "%s" (String.make 46 '-');
  let any = ref false in
  List.iter
    (fun (ctx, dim, cond) ->
      any := true;
      line "  cond estimate             %.3g  (%s, n=%d)" cond ctx dim)
    s.max_cond;
  let heavy = List.filter (fun (_, _, len) -> len >= 3) s.streaks in
  if heavy <> [] then begin
    any := true;
    line "  rejection-heavy ODE windows (streak >= 3):";
    List.iteri
      (fun i (ctx, time, len) ->
        if i < 5 then line "    %s: %d rejected near t=%.4g" ctx len time)
      heavy;
    if List.length heavy > 5 then
      line "    ... and %d more" (List.length heavy - 5)
  end;
  if s.residuals <> [] then begin
    any := true;
    line "  moment-match residuals at s0:";
    List.iter
      (fun (k, s0, r) -> line "    H%d(s0=%.4g)  rel residual %.3g" k s0 r)
      s.residuals
  end;
  (match s.freq_worst with
  | Some (omega, err) ->
    any := true;
    line "  freq sweep (%d pts)        worst rel err %.3g at omega=%.4g"
      s.freq_samples err omega
  | None -> ());
  (match s.pod with
  | Some (retained, total, energy, tail) ->
    any := true;
    line "  POD spectrum              %d/%d modes, energy %.8g, tail %.3g"
      retained total energy tail
  | None -> ());
  if not !any then line "  (no health events recorded)";
  line "%s" (String.make 46 '-');
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Exclusive-time and allocation attribution.

   Span durations and GC deltas are inclusive of children; exclusive
   cost is self minus the sum over direct child spans, clamped at zero
   (clock skew between a parent and its children can make the raw
   difference slightly negative).  Aggregated per span name across the
   whole trace: the walk visits every tree node, truncated-trace
   orphans included, so every span record counts once. *)

type attrib = {
  span : string;
  calls : int;
  incl_s : float;
  excl_s : float;
  incl_minor_words : float;
  excl_minor_words : float;
  incl_major_words : float;
  excl_major_words : float;
  incl_flops : int;
  excl_flops : int;
  incl_bytes : int;
  excl_bytes : int;
}

(* Per-span cost deltas carry the full Cost key set; the attribution
   views only need the flop total and the byte total. *)
let span_cost (s : Sink.span_record) =
  List.filter_map
    (fun (k, v) -> Option.map (fun c -> (c, v)) (Cost.of_name k))
    s.Sink.cost

let span_flops s = Cost.total_flops (span_cost s)
let span_bytes s = Cost.total_bytes (span_cost s)

(* Derived flops-per-second.  A zero-duration span (the clock's
   resolution is finite; tiny spans really do record dur = 0) has no
   meaningful rate, so render "n/a" — the same guard shape as
   [pct_change]'s zero baseline. *)
let flops_rate ~flops ~seconds =
  if not (Float.is_finite seconds) || seconds < 1e-12 then "n/a"
  else Printf.sprintf "%.3g" (float_of_int flops /. seconds)

let attribution t : attrib list =
  let tbl : (string, attrib) Hashtbl.t = Hashtbl.create 16 in
  let prof_minor (s : Sink.span_record) =
    match s.Sink.prof with Some p -> p.Prof.minor_words | None -> 0.0
  and prof_major (s : Sink.span_record) =
    match s.Sink.prof with Some p -> p.Prof.major_words | None -> 0.0
  in
  let rec walk = function
    | Leaf _ -> ()
    | Node (s, kids) ->
      let child_dur = ref 0.0 and child_minor = ref 0.0 and child_major = ref 0.0 in
      let child_flops = ref 0 and child_bytes = ref 0 in
      List.iter
        (function
          | Node (c, _) ->
            child_dur := !child_dur +. c.Sink.dur;
            child_minor := !child_minor +. prof_minor c;
            child_major := !child_major +. prof_major c;
            child_flops := !child_flops + span_flops c;
            child_bytes := !child_bytes + span_bytes c
          | Leaf _ -> ())
        kids;
      let excl v children = Float.max 0.0 (v -. children) in
      let excl_i v children = max 0 (v - children) in
      let a =
        match Hashtbl.find_opt tbl s.Sink.name with
        | Some a -> a
        | None ->
          {
            span = s.Sink.name;
            calls = 0;
            incl_s = 0.0;
            excl_s = 0.0;
            incl_minor_words = 0.0;
            excl_minor_words = 0.0;
            incl_major_words = 0.0;
            excl_major_words = 0.0;
            incl_flops = 0;
            excl_flops = 0;
            incl_bytes = 0;
            excl_bytes = 0;
          }
      in
      Hashtbl.replace tbl s.Sink.name
        {
          a with
          calls = a.calls + 1;
          incl_s = a.incl_s +. s.Sink.dur;
          excl_s = a.excl_s +. excl s.Sink.dur !child_dur;
          incl_minor_words = a.incl_minor_words +. prof_minor s;
          excl_minor_words =
            a.excl_minor_words +. excl (prof_minor s) !child_minor;
          incl_major_words = a.incl_major_words +. prof_major s;
          excl_major_words =
            a.excl_major_words +. excl (prof_major s) !child_major;
          incl_flops = a.incl_flops + span_flops s;
          excl_flops = a.excl_flops + excl_i (span_flops s) !child_flops;
          incl_bytes = a.incl_bytes + span_bytes s;
          excl_bytes = a.excl_bytes + excl_i (span_bytes s) !child_bytes;
        };
      List.iter walk kids
  in
  List.iter walk t.roots;
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b -> compare b.excl_s a.excl_s)

let render_hot ?(top = 10) t =
  let rows = attribution t in
  let shown = List.filteri (fun i _ -> i < top) rows in
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun m -> Buffer.add_string b (m ^ "\n")) fmt in
  line "hot kernels (exclusive time, top %d of %d)" (List.length shown)
    (List.length rows);
  line "%-28s %6s %10s %10s %12s %12s %12s %12s %9s" "span" "calls" "excl s"
    "incl s" "excl minor w" "excl major w" "excl flops" "excl bytes" "flops/s";
  line "%s" (String.make 118 '-');
  List.iter
    (fun a ->
      line "%-28s %6d %10.4f %10.4f %12.3g %12.3g %12d %12d %9s" a.span
        a.calls a.excl_s a.incl_s a.excl_minor_words a.excl_major_words
        a.excl_flops a.excl_bytes
        (flops_rate ~flops:a.excl_flops ~seconds:a.excl_s))
    shown;
  if rows = [] then line "  (no spans recorded)";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (chrome://tracing, Perfetto).

   Spans become "X" (complete) events with microsecond timestamps
   normalized to the earliest record; point events become instant
   events ("i", thread-scoped).  Everything runs on pid 1 / tid 1 —
   the tracer is single-threaded and nesting is reconstructed by the
   viewer from ts/dur containment. *)

let chrome_ts t0 time = (time -. t0) *. 1e6

let to_chrome t : Json.t =
  let t0 =
    List.fold_left
      (fun acc (s : Sink.span_record) -> Float.min acc s.Sink.start)
      (List.fold_left
         (fun acc (e : Sink.event_record) -> Float.min acc e.Sink.time)
         Float.infinity t.events)
      t.spans
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let span_event (s : Sink.span_record) =
    let args =
      (("depth", Json.Num (float_of_int s.Sink.depth))
      :: List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) s.Sink.counters)
      @ List.map
          (fun (k, v) -> ("cost." ^ k, Json.Num (float_of_int v)))
          s.Sink.cost
      @
      match s.Sink.prof with
      | None -> []
      | Some p ->
        List.map (fun (k, v) -> ("prof." ^ k, Json.Num v)) (Prof.fields p)
    in
    Json.Obj
      [
        ("name", Json.Str s.Sink.name);
        ("cat", Json.Str "span");
        ("ph", Json.Str "X");
        ("ts", Json.Num (chrome_ts t0 s.Sink.start));
        ("dur", Json.Num (s.Sink.dur *. 1e6));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ("args", Json.Obj args);
      ]
  in
  let point_event (e : Sink.event_record) =
    Json.Obj
      [
        ("name", Json.Str e.Sink.name);
        ("cat", Json.Str "event");
        ("ph", Json.Str "i");
        ("ts", Json.Num (chrome_ts t0 e.Sink.time));
        ("pid", Json.Num 1.0);
        ("tid", Json.Num 1.0);
        ("s", Json.Str "t");
        ( "args",
          Json.Obj
            [
              ("depth", Json.Num (float_of_int e.Sink.depth));
              ("detail", Json.Str e.Sink.detail);
            ] );
      ]
  in
  let ts = function
    | Json.Obj fields -> (
      match List.assoc_opt "ts" fields with Some (Json.Num f) -> f | _ -> 0.0)
    | _ -> 0.0
  in
  let events =
    List.map span_event t.spans @ List.map point_event t.events
    |> List.stable_sort (fun a b -> compare (ts a) (ts b))
  in
  Json.Obj
    [ ("traceEvents", Json.Arr events); ("displayTimeUnit", Json.Str "ms") ]

let chrome_string t = Json.render (to_chrome t)

let validate_chrome (j : Json.t) =
  let check = function
    | Json.Obj fields as ev ->
      let str k =
        match List.assoc_opt k fields with
        | Some (Json.Str s) -> s
        | Some v -> malformed "event %S: %S is %s, not a string" (Json.render ev) k (Json.kind v)
        | None -> malformed "event %S: missing %S" (Json.render ev) k
      in
      let num k =
        match List.assoc_opt k fields with
        | Some (Json.Num f) -> f
        | Some v -> malformed "event %S: %S is %s, not a number" (Json.render ev) k (Json.kind v)
        | None -> malformed "event %S: missing %S" (Json.render ev) k
      in
      let _ = str "name" and ph = str "ph" in
      let ts = num "ts" and _ = num "pid" and _ = num "tid" in
      if not (Float.is_finite ts) then malformed "non-finite ts";
      if ph = "X" then begin
        let dur = num "dur" in
        if not (Float.is_finite dur && dur >= 0.0) then
          malformed "ph=X event with invalid dur"
      end
    | v -> malformed "trace event is %s, not an object" (Json.kind v)
  in
  match j with
  | Json.Obj fields -> (
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.Arr []) -> malformed "empty traceEvents"
    | Some (Json.Arr evs) -> List.iter check evs
    | Some v -> malformed "traceEvents is %s, not an array" (Json.kind v)
    | None -> malformed "missing traceEvents")
  | v -> malformed "chrome trace is %s, not an object" (Json.kind v)

(* ------------------------------------------------------------------ *)
(* Folded-stack export (flamegraph.pl, speedscope).

   One line per unique call stack, "root;child;leaf count", where the
   count is the stack's exclusive time in integer microseconds.
   Exclusive values are computed from the *rounded* inclusive values,
   so the counts sum exactly to the total root inclusive time whenever
   children nest within their parents. *)

let folded_name name =
  String.map (function ' ' -> '_' | ';' -> ':' | c -> c) name

let to_folded t =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let micros dur = int_of_float (Float.round (dur *. 1e6)) in
  let rec walk prefix = function
    | Leaf _ -> ()
    | Node (s, kids) ->
      let stack =
        if prefix = "" then folded_name s.Sink.name
        else prefix ^ ";" ^ folded_name s.Sink.name
      in
      let child_us =
        List.fold_left
          (fun acc -> function
            | Node (c, _) -> acc + micros c.Sink.dur
            | Leaf _ -> acc)
          0 kids
      in
      let excl = max 0 (micros s.Sink.dur - child_us) in
      if excl > 0 then begin
        if not (Hashtbl.mem tbl stack) then order := stack :: !order;
        Hashtbl.replace tbl stack
          (excl + Option.value ~default:0 (Hashtbl.find_opt tbl stack))
      end;
      List.iter (walk stack) kids
  in
  List.iter (walk "") t.roots;
  let b = Buffer.create 512 in
  List.iter
    (fun stack ->
      Buffer.add_string b
        (Printf.sprintf "%s %d\n" stack (Hashtbl.find tbl stack)))
    (List.rev !order);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Diffing two traces.                                                *)

(* Kernel counters summed over top-level spans only: span counters are
   inclusive of children, so depth 0 gives whole-run totals without
   double counting. *)
let totals_over_roots project t : (string * int) list =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Sink.span_record) ->
      if s.Sink.depth = 0 then
        List.iter
          (fun (k, v) ->
            Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          (project s))
    t.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter_totals t = totals_over_roots (fun s -> s.Sink.counters) t
let cost_totals t = totals_over_roots (fun s -> s.Sink.cost) t

(* Percent delta with a guarded denominator: a zero (or non-finite)
   old value has no meaningful relative change, so render "n/a" rather
   than inf/nan — except 0 -> 0, which really is "=".  "new"/"gone"
   are reserved for entries missing from one side entirely. *)
let pct_change ~old ~fresh =
  if not (Float.is_finite old && Float.is_finite fresh) then "n/a"
  else if Float.abs old < 1e-300 then
    if Float.abs fresh < 1e-300 then "=" else "n/a"
  else Printf.sprintf "%+.1f%%" (100.0 *. ((fresh -. old) /. old))

let render_diff old_t new_t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun m -> Buffer.add_string b (m ^ "\n")) fmt in
  let span_totals t =
    List.map (fun a -> (a.span, (a.calls, a.incl_s))) (attribution t)
  in
  let old_spans = span_totals old_t and new_spans = span_totals new_t in
  let names =
    List.sort_uniq compare (List.map fst old_spans @ List.map fst new_spans)
  in
  line "%-30s %10s %10s %9s" "span (total)" "old s" "new s" "delta";
  line "%s" (String.make 62 '-');
  (* order by new total duration, descending; old-only names last *)
  let key name =
    match List.assoc_opt name new_spans with
    | Some (_, d) -> -.d
    | None -> Float.infinity
  in
  List.iter
    (fun name ->
      let fmt_tot = function
        | Some (n, d) -> Printf.sprintf "%8.3f/%d" d n
        | None -> "-"
      in
      let old_v = List.assoc_opt name old_spans
      and new_v = List.assoc_opt name new_spans in
      let delta =
        match (old_v, new_v) with
        | Some (_, od), Some (_, nd) -> pct_change ~old:od ~fresh:nd
        | None, Some _ -> "new"
        | Some _, None -> "gone"
        | None, None -> "="
      in
      line "%-30s %10s %10s %9s" name (fmt_tot old_v) (fmt_tot new_v) delta)
    (List.sort (fun a b -> compare (key a) (key b)) names);
  let int_table ~header old_c new_c =
    let cnames =
      List.sort_uniq compare (List.map fst old_c @ List.map fst new_c)
    in
    if cnames <> [] then begin
      line "";
      line "%-30s %13s %13s %9s" header "old" "new" "delta";
      line "%s" (String.make 68 '-');
      List.iter
        (fun name ->
          let ov = Option.value ~default:0 (List.assoc_opt name old_c)
          and nv = Option.value ~default:0 (List.assoc_opt name new_c) in
          line "%-30s %13d %13d %9s" name ov nv
            (pct_change ~old:(float_of_int ov) ~fresh:(float_of_int nv)))
        cnames
    end
  in
  int_table ~header:"counter" (counter_totals old_t) (counter_totals new_t);
  int_table ~header:"cost" (cost_totals old_t) (cost_totals new_t);
  (* headline health, old vs new *)
  let os = summarize old_t and ns = summarize new_t in
  let max_cond s =
    match s.max_cond with
    | [] -> None
    | l -> Some (List.fold_left (fun a (_, _, c) -> Float.max a c) 0.0 l)
  in
  let health_rows =
    ("max cond estimate", max_cond os, max_cond ns)
    :: List.map
        (fun k ->
          let get s =
            List.find_map
              (fun (k', _, r) -> if k' = k then Some r else None)
              s.residuals
          in
          (Printf.sprintf "H%d moment residual" k, get os, get ns))
        [ 1; 2; 3 ]
  in
  let shown =
    List.filter (fun (_, o, n) -> o <> None || n <> None) health_rows
  in
  if shown <> [] then begin
    line "";
    line "%-30s %10s %10s %9s" "health" "old" "new" "delta";
    line "%s" (String.make 62 '-');
    List.iter
      (fun (name, o, n) ->
        let fmt = function Some v -> Printf.sprintf "%10.3g" v | None -> "-" in
        let delta =
          match (o, n) with
          | Some ov, Some nv -> pct_change ~old:ov ~fresh:nv
          | None, Some _ -> "new"
          | Some _, None -> "gone"
          | None, None -> "="
        in
        line "%-30s %10s %10s %9s" name (fmt o) (fmt n) delta)
      shown
  end;
  Buffer.contents b
