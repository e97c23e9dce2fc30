(* @history-smoke driver: exercise the full append -> load -> render
   pipeline in-process against a real (tiny-scale) bench --json file,
   then re-parse the written snapshot with Obs.Json to prove the
   wrapper is well-formed JSON.  Usage: smoke BENCH.json *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "history smoke: %s\n" m;
      exit 1)
    fmt

let () =
  let src =
    match Sys.argv with [| _; p |] -> p | _ -> fail "usage: smoke BENCH.json"
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vmor_history_smoke_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let path =
    try Benchhistory.append ~pr:9999 ~src ~dir
    with Benchhistory.Bad_history m -> fail "append: %s" m
  in
  (* the snapshot wrapper must be plain parseable JSON *)
  let ic = open_in_bin path in
  let raw = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Obs.Json.parse raw with
  | json ->
    if Obs.Json.to_int (Obs.Json.member_exn "pr" json) <> 9999 then
      fail "snapshot pr mismatch"
  | exception Obs.Json.Parse_error m -> fail "snapshot not valid JSON: %s" m);
  let series =
    try Benchhistory.load_series ~dir
    with Benchhistory.Bad_history m -> fail "load: %s" m
  in
  (match series with
  | [ { Benchhistory.pr = 9999; bench } ] ->
    if Benchhistory.experiments bench = [] then fail "no experiments in snapshot"
  | _ -> fail "expected exactly one snapshot in %s" dir);
  let table = Benchhistory.render_table series in
  let csv = Benchhistory.render_csv series in
  if String.length table = 0 || String.length csv = 0 then
    fail "empty rendering";
  if not (String.length csv > 0 && String.sub csv 0 10 = "experiment") then
    fail "csv header missing";
  print_string "history smoke: OK\n"
