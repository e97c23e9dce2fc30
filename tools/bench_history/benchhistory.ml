(* Per-PR bench trajectory: snapshot each PR's bench --json output into
   a schema-versioned BENCH_<pr>.json at the repo root and render the
   series — wall time, nominal flops, flops/s, ROM orders and accuracy
   per experiment across PRs — as a table or CSV.

   The appender embeds the bench JSON verbatim under a thin wrapper

     {"history_schema": 1, "pr": N, "bench": { ... }}

   so a snapshot stays byte-comparable with the bench/baseline.json
   convention and [Gatecheck.parse] remains the single schema
   authority: the loader re-renders the embedded object and feeds it
   back through the same parser the gate uses.  Library so the test
   suite and the @history-smoke alias can drive append/render
   round-trips in-process; tools/bench_history/main.ml is the CLI and
   `vmor bench-history` the user-facing renderer. *)

let schema_version = 1

type entry = { pr : int; bench : Obs.Json.t }

exception Bad_history of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_history s)) fmt

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  src

let snapshot_name pr = Printf.sprintf "BENCH_%d.json" pr

(* ---- derived per-experiment rows ---- *)

let num k j = Obs.Json.(to_num (member_exn k j))
let experiments b = Obs.Json.(to_arr (member_exn "experiments" b))
let roms e = Obs.Json.(to_arr (member_exn "roms" e))
let id_of e = Obs.Json.(to_str (member_exn "id" e))

let total_flops e : int option =
  Option.map
    (fun cost ->
      List.fold_left
        (fun acc (k, v) ->
          if String.length k >= 6 && String.sub k 0 6 = "flops_" then
            acc + Obs.Json.to_int v
          else acc)
        0 (Obs.Json.to_obj cost))
    (Obs.Json.member "cost" e)

let orders_of e : string =
  match roms e with
  | [] -> "-"
  | roms ->
    String.concat "+"
      (List.map (fun r -> string_of_int Obs.Json.(to_int (member_exn "order" r))) roms)

let max_err_of e : float =
  List.fold_left (fun acc r -> Float.max acc (num "max_rel_error" r)) 0.0 (roms e)

(* experiment ids in first-appearance order across the series *)
let experiment_ids (series : entry list) : string list =
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc x -> if List.mem (id_of x) acc then acc else acc @ [ id_of x ])
        acc (experiments e.bench))
    [] series

let find_experiment b id =
  List.find_opt (fun x -> String.equal (id_of x) id) (experiments b)

(* one trajectory row: pr, wall, flops, flops/s, orders, max_rel_error *)
let row_of (pr : int) e =
  let wall = num "wall_seconds" e in
  let flops = total_flops e in
  let flops_s = Option.fold ~none:"n/a" ~some:string_of_int flops in
  (* zero-duration (or non-finite) walls render as n/a, same guard as
     the report's flops/s column *)
  let rate =
    match flops with
    | None -> "n/a"
    | Some f -> Obs.Trace.flops_rate ~flops:f ~seconds:wall
  in
  ( string_of_int pr,
    Printf.sprintf "%.4f" wall,
    flops_s,
    rate,
    orders_of e,
    Printf.sprintf "%.6f" (max_err_of e) )

(* run-level request-latency quantiles (the bench `latency` pass);
   snapshots predating the block render as n/a so the series stays
   rectangular *)
let latency_cells b =
  match Obs.Json.member "latency" b with
  | None -> ("n/a", "n/a", "n/a")
  | Some l ->
    ( string_of_int Obs.Json.(to_int (member_exn "requests" l)),
      Printf.sprintf "%.4f" (num "p50_s" l),
      Printf.sprintf "%.4f" (num "p99_s" l) )

let any_latency (series : entry list) =
  List.exists (fun e -> Obs.Json.member "latency" e.bench <> None) series

(* Parse one BENCH_<pr>.json wrapper; the embedded bench object goes
   back through [Gatecheck.parse] so history snapshots can never drift
   from the gate's schema, and every row is derived once here so a
   snapshot missing a rendered field fails at load, not mid-render. *)
let parse_entry (src : string) : entry =
  let open Obs.Json in
  let json =
    try parse src with Parse_error m -> bad "invalid JSON: %s" m
  in
  let version =
    try to_int (member_exn "history_schema" json)
    with Parse_error m -> bad "bad history schema: %s" m
  in
  if version <> schema_version then
    bad "unsupported history_schema %d (expected %d)" version schema_version;
  let pr =
    try to_int (member_exn "pr" json)
    with Parse_error m -> bad "bad history schema: %s" m
  in
  let bench_json =
    match member "bench" json with
    | Some b -> b
    | None -> bad "bad history schema: missing \"bench\""
  in
  let bench =
    try Gatecheck.parse (render bench_json)
    with Gatecheck.Bad_bench m -> bad "embedded bench: %s" m
  in
  (try
     List.iter (fun e -> ignore (row_of pr e)) (experiments bench);
     ignore (latency_cells bench)
   with Parse_error m -> bad "embedded bench: %s" m);
  { pr; bench }

(* Snapshot [src] (a bench --json file) as BENCH_<pr>.json in [dir];
   returns the path written.  The source is validated through
   [Gatecheck.parse] first — a malformed snapshot would poison every
   later render. *)
let append ~pr ~(src : string) ~(dir : string) : string =
  let raw = read_file src in
  (match Gatecheck.parse raw with
  | (_ : Obs.Json.t) -> ()
  | exception Gatecheck.Bad_bench m -> bad "%s: %s" src m);
  let path = Filename.concat dir (snapshot_name pr) in
  let oc = open_out path in
  Printf.fprintf oc "{\"history_schema\": %d,\n \"pr\": %d,\n \"bench\": %s}\n"
    schema_version pr (String.trim raw);
  close_out oc;
  path

(* Every BENCH_<n>.json in [dir], sorted by PR number. *)
let load_series ~(dir : string) : entry list =
  let files =
    try Array.to_list (Sys.readdir dir)
    with Sys_error m -> bad "cannot read %s: %s" dir m
  in
  let snapshots =
    List.filter
      (fun f ->
        String.length f > 7
        && String.sub f 0 6 = "BENCH_"
        && Filename.check_suffix f ".json"
        && int_of_string_opt (Filename.chop_suffix (String.sub f 6 (String.length f - 6)) ".json")
           <> None)
      files
  in
  List.sort
    (fun a b -> compare a.pr b.pr)
    (List.map (fun f -> parse_entry (read_file (Filename.concat dir f))) snapshots)

let render_table (series : entry list) : string =
  let b = Buffer.create 2048 in
  (match series with
  | [] -> Buffer.add_string b "bench history: no BENCH_<pr>.json snapshots\n"
  | _ ->
    List.iter
      (fun id ->
        Buffer.add_string b (Printf.sprintf "== %s ==\n" id);
        Buffer.add_string b
          (Printf.sprintf "  %4s  %10s  %14s  %10s  %-8s  %12s\n" "pr" "wall_s"
             "flops" "flops/s" "orders" "max_rel_err");
        List.iter
          (fun entry ->
            match find_experiment entry.bench id with
            | None -> ()
            | Some e ->
              let pr, wall, flops, rate, orders, err = row_of entry.pr e in
              Buffer.add_string b
                (Printf.sprintf "  %4s  %10s  %14s  %10s  %-8s  %12s\n" pr wall
                   flops rate orders err))
          series;
        Buffer.add_char b '\n')
      (experiment_ids series);
    if any_latency series then begin
      Buffer.add_string b "== (latency) ==\n";
      Buffer.add_string b
        (Printf.sprintf "  %4s  %10s  %10s  %10s\n" "pr" "requests" "p50_s"
           "p99_s");
      List.iter
        (fun entry ->
          let requests, p50, p99 = latency_cells entry.bench in
          Buffer.add_string b
            (Printf.sprintf "  %4d  %10s  %10s  %10s\n" entry.pr requests p50
               p99))
        series;
      Buffer.add_char b '\n'
    end);
  Buffer.contents b

let render_csv (series : entry list) : string =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "experiment,pr,wall_seconds,flops,flops_per_sec,orders,max_rel_error,\
     latency_p50_s,latency_p99_s\n";
  List.iter
    (fun id ->
      List.iter
        (fun entry ->
          match find_experiment entry.bench id with
          | None -> ()
          | Some e ->
            let pr, wall, flops, rate, orders, err = row_of entry.pr e in
            let _, p50, p99 = latency_cells entry.bench in
            Buffer.add_string b
              (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s,%s,%s\n" id pr wall flops
                 rate orders err p50 p99))
        series)
    (experiment_ids series);
  Buffer.contents b
