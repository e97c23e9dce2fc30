(* Bench-trajectory snapshot writer (see benchhistory.ml for the
   snapshot format):

     bench_history append --pr N --src bench.json [--dir DIR]

   `append` validates a bench --json file through the gate parser and
   snapshots it as DIR/BENCH_N.json (DIR defaults to the current
   directory — the repo root by convention, so snapshots are committed
   alongside the PR they measure).  `vmor bench-history` renders the
   snapshots.  Exit 0 on success, 2 on usage/IO/schema errors. *)

let usage () =
  prerr_string "usage: bench_history append --pr N --src BENCH.json [--dir DIR]\n";
  exit 2

let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "bench_history: %s\n" m; exit 2) fmt

let () =
  match Array.to_list Sys.argv with
  | _ :: "append" :: rest ->
    let pr = ref None and src = ref None and dir = ref "." in
    let rec parse = function
      | [] -> ()
      | "--pr" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 0 -> pr := Some n
        | _ -> fail "--pr expects a non-negative integer, got %S" v);
        parse rest
      | "--src" :: v :: rest ->
        src := Some v;
        parse rest
      | "--dir" :: v :: rest ->
        dir := v;
        parse rest
      | _ -> usage ()
    in
    parse rest;
    (match (!pr, !src) with
    | Some pr, Some src -> (
      match Benchhistory.append ~pr ~src ~dir:!dir with
      | path -> Printf.printf "bench history: wrote %s\n" path
      | exception Benchhistory.Bad_history m -> fail "%s" m
      | exception Sys_error m -> fail "%s" m)
    | _ -> usage ())
  | _ -> usage ()
