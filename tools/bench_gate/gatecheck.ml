(* Bench regression gate: compare a fresh bench/out/bench.json against
   the checked-in bench/baseline.json and list tolerance violations.

   The gate is one walk over the two JSON trees plus one table of
   bands.  The walk visits objects over the union of their keys,
   matches experiments by [id] and ROMs by position; a key present on
   one side only is a single structural violation for that whole
   subtree.  Every leaf reached on both sides is looked up in [bands]
   by its path, so a new bench block costs a table row, not code.

   The bands match how the numbers fail in practice:
   - wall times are noisy -> a relative band with an absolute floor,
     skipped entirely under --ignore-wall for the deterministic
     runtest smoke (so are the other wall-derived bands);
   - kernel counters and ROM orders are deterministic at fixed scale ->
     exact, with a +-10% escape hatch for counts that legitimately
     wobble with iteration-dependent control flow;
   - Obs.Cost counters are exact, even under --ignore-wall: they are
     the wall-free performance pin;
   - accuracy must never quietly regress -> max_rel_error may drift but
     not beyond 2x the baseline.

   This is a library so the test suite can drive the same logic on
   hand-crafted JSON; tools/bench_gate/main.ml is the thin CLI around
   it and `dune build @gate` wires it to a reduced-scale bench run. *)

open Obs.Json

exception Bad_bench of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_bench s)) fmt

(* The schema the walk relies on: a numeric [scale] and an
   [experiments] array whose entries carry a string [id].  Everything
   else is compared structurally, so it needs no validation here. *)
let parse (src : string) : t =
  let json = try parse src with Parse_error m -> bad "invalid JSON: %s" m in
  (try
     ignore (to_num (member_exn "scale" json));
     List.iter
       (fun e -> ignore (to_str (member_exn "id" e)))
       (to_arr (member_exn "experiments" json))
   with Parse_error m -> bad "bad bench schema: %s" m);
  json

let load (path : string) : t =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  try parse src with Bad_bench m -> bad "%s: %s" path m

type band =
  | Presence  (* structural only: the value is not compared *)
  | Match  (* strings equal, numbers within rel 1e-9 *)
  | Exact  (* Float.equal *)
  | Rel of float  (* exact or within +-tol relative to max(|baseline|, 1) *)
  | Error_factor of float  (* fresh <= factor * baseline + 1e-9 *)
  | Wall of { tol : float; floor : float }
      (* |rel diff| > tol and |abs diff| > floor seconds fails *)
  | Slack of float  (* fresh <= baseline + slack percentage points *)
  | Floor of float
      (* fresh >= min, on a fresh host with >= 4 cores whose serial
         wall clears [par_wall_floor] *)
  | Ceiling of float  (* fresh <= max, above the same serial-wall floor *)

(* Vmor.Par lines are ratios of wall times and only mean anything once
   the serial wall clears timer granularity and scheduler jitter; the
   speedup line also needs a host that can run 4 domains at once. *)
let par_wall_floor = 0.05  (* seconds of serial wall *)
let par_min_cores = 4

(* Wall-derived bands are skipped under --ignore-wall. *)
let wall_derived = function
  | Wall _ | Slack _ | Floor _ | Ceiling _ -> true
  | Presence | Match | Exact | Rel _ | Error_factor _ -> false

(* The one band table.  Paths are dot-separated; [*] matches any one
   segment (an experiment id, a ROM index, a counter name).  The first
   matching row wins; a leaf no row matches is checked for presence
   only: ids, titles, per-ROM reduction_seconds (under the noise floor
   at reduced scale), par.cores (a guard) and the par walls.

   - Experiment walls get a +-30% band over a 2 s absolute floor:
     reduced-scale runs take a few seconds and shared machines jitter
     that much; the counters pin algorithmic regressions.
   - GC word counts move with allocator batching and minor-heap sizing
     across runtimes, so their band is wider than the counter one.
   - Overheads are ratios of two walls; a 0.1% baseline doubling to
     0.2% is noise, so the band is absolute percentage points.
   - Latency quantiles are sub-second nearest-rank order statistics of
     32 walls, so they carry sampling noise: a wider band over a
     tighter floor. *)
let bands : (string list * band) list =
  List.map
    (fun (p, b) -> (String.split_on_char '.' p, b))
    [
      ("scale", Match);
      ("experiments.*.full_states", Match);
      ("experiments.*.wall_seconds", Wall { tol = 0.30; floor = 2.0 });
      ("experiments.*.counters.*", Rel 0.10);
      ("experiments.*.cost.*", Exact);
      ("experiments.*.gc.minor_words", Rel 0.25);
      ("experiments.*.gc.major_words", Rel 0.25);
      ("experiments.*.roms.*.method", Match);
      ("experiments.*.roms.*.order", Rel 0.10);
      ("experiments.*.roms.*.raw_moments", Rel 0.10);
      ("experiments.*.roms.*.max_rel_error", Error_factor 2.0);
      ("overheads.*", Slack 1.0);
      ("par.speedup_4", Floor 2.5);
      ("par.overhead_1_pct", Ceiling 2.0);
      ("latency.requests", Exact);
      ("latency.p50_s", Wall { tol = 0.50; floor = 0.15 });
      ("latency.p99_s", Wall { tol = 0.50; floor = 0.15 });
    ]

let band_of path =
  let matches pattern =
    List.length pattern = List.length path
    && List.for_all2 (fun p s -> String.equal p "*" || String.equal p s) pattern path
  in
  match List.find_opt (fun (p, _) -> matches p) bands with
  | Some (_, b) -> b
  | None -> Presence

(* One violated tolerance; [where] locates it (experiment / ROM /
   run-level block), [allowed] restates the band that was broken. *)
type violation = {
  where : string;
  metric : string;
  baseline : string;
  current : string;
  allowed : string;
}

let rel_diff ~old_v ~new_v =
  Float.abs (new_v -. old_v) /. Float.max (Float.abs old_v) 1e-12

let show = function Str s -> s | Num f -> float_string f | v -> render v

(* [Some (baseline, current, allowed)] when fresh value [y] breaks
   [band] against baseline [x]; [sibling k] reads a number from the
   fresh enclosing object (the par guards). *)
let numeric band ~sibling x y =
  let pct = Printf.sprintf "%.0f%%" in
  match band with
  | Presence -> None
  | Match ->
    if rel_diff ~old_v:x ~new_v:y > 1e-9 then
      Some (float_string x, float_string y, "must match")
    else None
  | Exact ->
    if Float.equal x y then None else Some (float_string x, float_string y, "exact")
  | Rel tol ->
    if Float.abs (y -. x) /. Float.max (Float.abs x) 1.0 > tol then
      Some (float_string x, float_string y, "exact or +-" ^ pct (100.0 *. tol))
    else None
  | Error_factor k ->
    if y > (k *. x) +. 1e-9 then
      Some
        ( Printf.sprintf "%.6f" x,
          Printf.sprintf "%.6f" y,
          Printf.sprintf "<= %gx baseline" k )
    else None
  | Wall { tol; floor } ->
    if rel_diff ~old_v:x ~new_v:y > tol && Float.abs (y -. x) > floor then
      Some (Printf.sprintf "%.4fs" x, Printf.sprintf "%.4fs" y, "+-" ^ pct (100.0 *. tol))
    else None
  | Slack pt ->
    if y > x +. pt then
      Some
        ( Printf.sprintf "%.2f%%" x,
          Printf.sprintf "%.2f%%" y,
          Printf.sprintf "<= baseline + %.1fpt" pt )
    else None
  | Floor min ->
    let cores = sibling "cores" in
    if
      sibling "serial_wall" < par_wall_floor
      || cores < float_of_int par_min_cores
      || y >= min
    then None
    else
      Some
        ( Printf.sprintf "%.0f cores" cores,
          Printf.sprintf "%.2fx" y,
          Printf.sprintf ">= %.1fx on >= %d cores" min par_min_cores )
  | Ceiling max ->
    if sibling "serial_wall" < par_wall_floor || y <= max then None
    else
      Some ("serial wall", Printf.sprintf "%+.2f%%" y, Printf.sprintf "<= %.1f%%" max)

(* keys of [a] in order, then the keys only [b] has *)
let union_keys a b =
  List.map fst a @ List.filter (fun k -> not (List.mem_assoc k a)) (List.map fst b)

let check ?(ignore_wall = false) ~(baseline : t) ~(fresh : t) () : violation list
    =
  let acc = ref [] in
  let report ~where ~metric (baseline, current, allowed) =
    acc := { where; metric; baseline; current; allowed } :: !acc
  in
  (* Walk two assoc lists over the union of their keys: [both] on keys
     present on each side, else one structural violation located by
     [missing k] = (where, metric). *)
  let pair ~missing a b both =
    List.iter
      (fun k ->
        match (List.assoc_opt k a, List.assoc_opt k b) with
        | Some x, Some y -> both k x y
        | x, _ ->
          let where, metric = missing k in
          report ~where ~metric
            (if Option.is_some x then ("present", "missing", "must match")
             else ("absent (refresh baseline)", "present", "must match")))
      (union_keys a b)
  in
  (* [path] keys the band table; [label] names the metric inside
     [where], joined with [sep]. *)
  let rec walk ~where ~sep ~path ~label ~parent b f =
    let metric l =
      (* counter names have always printed as "counter <name>" *)
      String.concat sep (match l with "counters" :: r -> "counter" :: r | l -> l)
    in
    match (b, f) with
    | Obj bo, Obj fo ->
      pair ~missing:(fun k -> (where, metric (label @ [ k ]))) bo fo
        (fun k x y ->
          walk ~where ~sep ~path:(path @ [ k ]) ~label:(label @ [ k ]) ~parent:f x y)
    | Arr bl, Arr fl ->
      (* the ROM list, matched by position; each ROM is its own [where] *)
      if List.length bl <> List.length fl then
        report ~where ~metric:"rom count"
          ( string_of_int (List.length bl),
            string_of_int (List.length fl),
            "must match" )
      else
        List.iteri
          (fun i (x, y) ->
            let field k = Option.fold ~none:"?" ~some:show (member k x) in
            walk
              ~where:(Printf.sprintf "%s/%s[q=%s]" where (field "method") (field "order"))
              ~sep ~path:(path @ [ string_of_int i ]) ~label:[] ~parent:y x y)
          (List.combine bl fl)
    | _ ->
      let band = band_of path in
      let sibling k = match member k parent with Some (Num v) -> v | _ -> 0.0 in
      let verdict =
        if ignore_wall && wall_derived band then None
        else
          match (band, b, f) with
          | Presence, _, _ -> None
          | _, Num x, Num y -> numeric band ~sibling x y
          | _ ->
            if String.equal (render b) (render f) then None
            else Some (show b, show f, "must match")
      in
      Option.iter (report ~where ~metric:(metric label)) verdict
  in
  let by_id j = List.map (fun e -> (to_str (member_exn "id" e), e)) (to_arr j) in
  pair
    ~missing:(fun k -> (Printf.sprintf "(%s)" k, k ^ " block"))
    (to_obj baseline) (to_obj fresh)
    (fun k x y ->
      match (k, x) with
      | "experiments", _ ->
        pair ~missing:(fun id -> (id, "experiment")) (by_id x) (by_id y)
          (fun id x y ->
            walk ~where:id ~sep:" " ~path:[ k; id ] ~label:[] ~parent:y x y)
      | _, Obj _ ->
        walk ~where:(Printf.sprintf "(%s)" k) ~sep:"." ~path:[ k ] ~label:[] ~parent:y x y
      | _ -> walk ~where:"(run)" ~sep:"." ~path:[ k ] ~label:[ k ] ~parent:fresh x y);
  List.rev !acc

(* Machine-readable violation list for `bench_gate --json OUT`
   (mirrors vmor_lint --json): a schema tag, the overall verdict and
   one record per violated band, so CI can archive and diff gate
   outcomes without scraping the table. *)
let render_json (violations : violation list) : string =
  let record v =
    Obj
      [
        ("where", Str v.where);
        ("metric", Str v.metric);
        ("baseline", Str v.baseline);
        ("current", Str v.current);
        ("allowed", Str v.allowed);
      ]
  in
  render
    (Obj
       [
         ("schema", Str "vmor.bench_gate/1");
         ("ok", Bool (violations = []));
         ("violations", Arr (List.map record violations));
       ])
  ^ "\n"

let render (violations : violation list) : string =
  let b = Buffer.create 1024 in
  (match violations with
  | [] -> Buffer.add_string b "bench gate: OK\n"
  | vs ->
    Buffer.add_string b
      (Printf.sprintf "bench gate: %d violation(s)\n" (List.length vs));
    let rows =
      ("where", "metric", "baseline", "current", "allowed")
      :: List.map (fun v -> (v.where, v.metric, v.baseline, v.current, v.allowed)) vs
    in
    let w f = List.fold_left (fun m r -> max m (String.length (f r))) 0 rows in
    let w1 = w (fun (a, _, _, _, _) -> a)
    and w2 = w (fun (_, a, _, _, _) -> a)
    and w3 = w (fun (_, _, a, _, _) -> a)
    and w4 = w (fun (_, _, _, a, _) -> a) in
    List.iteri
      (fun i (a, m, ov, nv, al) ->
        Buffer.add_string b
          (Printf.sprintf "  %-*s  %-*s  %*s  %*s  %s\n" w1 a w2 m w3 ov w4 nv al);
        if i = 0 then
          Buffer.add_string b
            (Printf.sprintf "  %s\n"
               (String.make (w1 + w2 + w3 + w4 + 6 + String.length al) '-')))
      rows);
  Buffer.contents b
