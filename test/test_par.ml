(* Tests for Vmor.Par (DESIGN.md §14): the combinator contracts of the
   domain pool (ordering, exception choice, ambient scoping, nested
   regions), bit-identical determinism of parallel reductions against
   the serial path on fig2/fig3-style systems, budget exhaustion under
   parallelism (a stall in one worker must still end in a valid
   best-effort ROM or a typed budget raise — never a hang), the
   [Options.make]/CLI validation surface of the lane count, and the
   domain-safety baseline staying at zero shared-write exports.

   No test calls [Domain.spawn] (the raw-domain-spawn lint rule): all
   parallelism goes through the public [Vmor.Par] surface. *)

open La
module Par = Vmor.Par
module Budget = Robust.Budget

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Fixed policy so nothing here depends on VMOR_MAX_RETRIES. *)
let test_policy =
  {
    Robust.Policy.max_retries = 4;
    nudge_eps = 1e-4;
    nudge_base = 1.0;
    tikhonov_mu = 1e-8;
  }

let small_nltl_v () =
  Circuit.Models.qldae (Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) ())

let small_nltl_i () =
  Circuit.Models.qldae (Circuit.Models.nltl_current ~stages:8 ())

let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 1 }

(* ---- combinator contracts ---- *)

let test_ambient_scoping () =
  Alcotest.(check int) "default is serial" 1 (Par.domains ());
  Par.with_domains (Some 3) (fun () ->
      Alcotest.(check int) "set inside" 3 (Par.domains ());
      Par.with_domains None (fun () ->
          Alcotest.(check int) "None leaves the ambient count" 3
            (Par.domains ())));
  Alcotest.(check int) "restored after" 1 (Par.domains ());
  (match
     Par.with_domains (Some 2) (fun () -> raise (Failure "escape"))
   with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected the exception to propagate");
  Alcotest.(check int) "restored on exception" 1 (Par.domains ());
  Par.with_domains (Some 1000) (fun () ->
      Alcotest.(check int) "clamped above" Par.max_domains (Par.domains ()));
  Par.with_domains (Some 0) (fun () ->
      Alcotest.(check int) "clamped below" 1 (Par.domains ()))

let test_parallel_for_covers_range () =
  Par.with_domains (Some 4) (fun () ->
      let n = 10_000 in
      let hits = Array.make n 0 in
      Par.parallel_for ~min_chunk:16 ~lo:0 ~hi:n (fun i ->
          hits.(i) <- hits.(i) + 1);
      Array.iteri
        (fun i h ->
          if h <> 1 then Alcotest.failf "index %d visited %d times" i h)
        hits;
      (* empty and single-element ranges *)
      Par.parallel_for ~lo:5 ~hi:5 (fun _ -> Alcotest.fail "empty range ran");
      let one = ref 0 in
      Par.parallel_for ~lo:7 ~hi:8 (fun i -> one := i);
      Alcotest.(check int) "singleton range" 7 !one)

let test_tiles_partition () =
  Par.with_domains (Some 4) (fun () ->
      let n = 8192 in
      let hits = Array.make n 0 in
      (* Alcotest's check log is not domain-safe: workers only count,
         the caller checks *)
      let bad_tiles = Atomic.make 0 in
      Par.tiles ~min_chunk:512 ~lo:0 ~hi:n (fun ~lo ~hi ->
          if lo >= hi then Atomic.incr bad_tiles;
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check int) "tiles nonempty and ordered" 0 (Atomic.get bad_tiles);
      Array.iteri
        (fun i h -> if h <> 1 then Alcotest.failf "index %d in %d tiles" i h)
        hits)

let test_map_preserves_order () =
  Par.with_domains (Some 4) (fun () ->
      let xs = List.init 257 (fun i -> i) in
      let expect = List.map (fun i -> i * i) xs in
      Alcotest.(check (list int))
        "map_list matches serial map" expect
        (Par.map_list (fun i -> i * i) xs);
      Alcotest.(check (list int)) "empty list" [] (Par.map_list succ []);
      let total =
        Par.map_reduce
          ~map:(fun i -> float_of_int i)
          ~reduce:( +. ) ~init:0.0 xs
      in
      (* item-order fold on the caller: identical to the serial sum *)
      let serial = List.fold_left ( +. ) 0.0 (List.map float_of_int xs) in
      if total <> serial then
        Alcotest.failf "map_reduce sum differs: %.17g vs %.17g" total serial)

exception Boom of int

let test_lowest_index_exception () =
  Par.with_domains (Some 4) (fun () ->
      let xs = Array.init 64 (fun i -> i) in
      match
        Par.map_array (fun i -> if i >= 9 then raise (Boom i) else i) xs
      with
      | _ -> Alcotest.fail "expected a raise"
      | exception Boom i ->
          Alcotest.(check int) "lowest failing index wins" 9 i)

let test_nested_region_degrades_serial () =
  Par.with_domains (Some 4) (fun () ->
      (* an inner parallel map inside an outer parallel region must
         complete (serially) rather than deadlock on the shared pool *)
      let outer =
        Par.map_list
          (fun i -> List.fold_left ( + ) 0 (Par.map_list (fun j -> i * j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4; 5 ]
      in
      Alcotest.(check (list int)) "nested result" [ 6; 12; 18; 24; 30 ] outer);
  (* the pool survives for the next region; shutting it down is safe
     and idempotent *)
  Par.shutdown_pool ();
  Par.shutdown_pool ();
  Par.with_domains (Some 2) (fun () ->
      Alcotest.(check (list int)) "pool recreated after shutdown" [ 2; 4 ]
        (Par.map_list (fun i -> 2 * i) [ 1; 2 ]))

(* ---- determinism: parallel reductions bit-identical to serial ---- *)

let check_same_reduction name (a : Mor.Atmor.result) (b : Mor.Atmor.result) =
  Alcotest.(check int)
    (name ^ ": same order") (Mor.Atmor.order a) (Mor.Atmor.order b);
  Alcotest.(check int)
    (name ^ ": same raw moments") a.Mor.Atmor.raw_moments
    b.Mor.Atmor.raw_moments;
  let ba = a.Mor.Atmor.basis and bb = b.Mor.Atmor.basis in
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
  done;
  (* the degradation report is part of the result contract: same
     events, same order, same messages *)
  let ea = a.Mor.Atmor.degradation and eb = b.Mor.Atmor.degradation in
  Alcotest.(check int)
    (name ^ ": same degradation length")
    (List.length ea) (List.length eb);
  List.iter2
    (fun (x : Robust.Report.event) (y : Robust.Report.event) ->
      Alcotest.(check string) (name ^ ": same action") x.action y.action;
      Alcotest.(check string)
        (name ^ ": same error")
        (Robust.Error.to_string x.error)
        (Robust.Error.to_string y.error))
    ea eb

let reduce_with ?method_ ~domains q =
  Vmor.reduce
    ~options:(Vmor.Options.make ?method_ ~policy:test_policy ?domains ())
    ~orders q

let test_reduce_bit_identical () =
  List.iter
    (fun (name, q) ->
      let serial = reduce_with ~domains:None q in
      let par4 = reduce_with ~domains:(Some 4) q in
      check_same_reduction (name ^ " 4-domain") serial par4;
      let par1 = reduce_with ~domains:(Some 1) q in
      check_same_reduction (name ^ " 1-domain") serial par1)
    [ ("fig2/nltl-v", small_nltl_v ()); ("fig3/nltl-i", small_nltl_i ()) ]

let test_multipoint_bit_identical () =
  let q = small_nltl_v () in
  let method_ = Vmor.Multipoint [ 0.5; 2.0 ] in
  let serial = reduce_with ~method_ ~domains:None q in
  let par4 = reduce_with ~method_ ~domains:(Some 4) q in
  check_same_reduction "multipoint 4-domain" serial par4

let test_autoselect_bit_identical () =
  let q = small_nltl_i () in
  let go d =
    Par.with_domains d (fun () ->
        Mor.Autoselect.reduce ~policy:test_policy
          ~max_orders:{ Mor.Atmor.k1 = 5; k2 = 2; k3 = 1 } q)
  in
  let serial = go None and par4 = go (Some 4) in
  Alcotest.(check bool) "same chosen orders" true
    (serial.Mor.Autoselect.chosen = par4.Mor.Autoselect.chosen);
  check_same_reduction "autoselect 4-domain" serial.Mor.Autoselect.result
    par4.Mor.Autoselect.result

let test_freq_sweep_bit_identical () =
  let q = small_nltl_i () in
  let rom = (Mor.Atmor.reduce ~policy:test_policy ~orders q).Mor.Atmor.rom in
  let s0 = 1.0 in
  let omegas = List.init 12 (fun i -> 0.01 *. float_of_int (1 + i)) in
  let go d =
    Par.with_domains d (fun () ->
        Mor.Romdiag.freq_sweep ~omegas ~s0 ~full:q ~rom ())
  in
  let serial = go None and par4 = go (Some 4) in
  Alcotest.(check int) "same sample count" (List.length serial)
    (List.length par4);
  List.iter2
    (fun (wa, ea) (wb, eb) ->
      if wa <> wb || ea <> eb then
        Alcotest.failf "sweep differs at omega %.17g/%.17g: %.17g vs %.17g" wa
          wb ea eb)
    serial par4

(* ---- budget exhaustion under parallelism ---- *)

let has_budget_event report =
  List.exists
    (fun (e : Robust.Report.event) -> Budget.is_budget_error e.error)
    report

let orthonormality v =
  Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose v) v) (Mat.identity (Mat.cols v)))

let test_stall_under_parallelism () =
  (* A [Stall] fault blows the virtual deadline at one exact resolvent
     call while four lanes are active.  The worker that observes the
     exhaustion latches the shared budget, siblings cancel at their
     next poll, and the reducer must still return a valid best-effort
     ROM (with the budget failure recorded) or raise the typed budget
     error.  The test would hang, not fail, if cancellation ever
     stranded the pool — alcotest's process timeout is the backstop. *)
  let q = small_nltl_i () in
  let degraded = ref 0 and exhausted = ref 0 in
  for on_call = 1 to 10 do
    let label = Printf.sprintf "par stall@%d" on_call in
    let fault = Robust.Faultify.plan ~on_call (Robust.Faultify.Stall 3600.0) in
    match
      Vmor.reduce
        ~options:
          (Vmor.Options.make ~policy:test_policy ~fault
             ~budget:(Budget.make ~deadline:60.0 ())
             ~domains:4 ())
        ~orders q
    with
    | r ->
        let order = Mor.Atmor.order r in
        Alcotest.(check bool) (label ^ ": nonempty ROM") true (order >= 1);
        let ortho = orthonormality r.Mor.Atmor.basis in
        Alcotest.(check bool)
          (Printf.sprintf "%s: basis orthonormal (%.3e)" label ortho)
          true (ortho <= 1e-10);
        if has_budget_event r.Mor.Atmor.degradation then incr degraded
    | exception Robust.Error.Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: raise is typed budget (%s)" label
             (Robust.Error.to_string e))
          true
          (Budget.is_budget_error e);
        incr exhausted
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some stalls produce a degraded ROM (%d) or typed raise \
                     (%d)" !degraded !exhausted)
    true
    (!degraded + !exhausted >= 1)

let test_multipoint_stall_under_parallelism () =
  (* same, with the per-point map running the points on worker lanes *)
  let q = small_nltl_v () in
  for on_call = 1 to 6 do
    let label = Printf.sprintf "multipoint par stall@%d" on_call in
    let fault = Robust.Faultify.plan ~on_call (Robust.Faultify.Stall 3600.0) in
    match
      Vmor.reduce
        ~options:
          (Vmor.Options.make
             ~method_:(Vmor.Multipoint [ 0.5; 2.0 ])
             ~policy:test_policy ~fault
             ~budget:(Budget.make ~deadline:60.0 ())
             ~domains:4 ())
        ~orders q
    with
    | r ->
        Alcotest.(check bool) (label ^ ": nonempty ROM") true
          (Mor.Atmor.order r >= 1)
    | exception Robust.Error.Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: raise is typed budget (%s)" label
             (Robust.Error.to_string e))
          true
          (Budget.is_budget_error e)
  done

(* ---- Options.make validation ---- *)

let test_options_domains_validation () =
  let rejected n =
    match Vmor.Options.make ~domains:n () with
    | exception Robust.Error.Error (Robust.Error.Contract_violation _) -> true
    | exception _ -> false
    | _ -> false
  in
  Alcotest.(check bool) "domains 0 rejected (typed)" true (rejected 0);
  Alcotest.(check bool) "domains -3 rejected (typed)" true (rejected (-3));
  Alcotest.(check bool) "domains 65 rejected (typed)" true (rejected 65);
  let accepted n = (Vmor.Options.make ~domains:n ()).Vmor.Options.domains in
  Alcotest.(check (option int)) "domains 1 accepted" (Some 1) (accepted 1);
  Alcotest.(check (option int)) "domains 64 accepted" (Some 64) (accepted 64);
  Alcotest.(check (option int)) "domains omitted" None
    (Vmor.Options.make ()).Vmor.Options.domains

(* ---- CLI: --domains / VMOR_DOMAINS parse failures exit 2 ---- *)

let cli_exe = Filename.concat Filename.parent_dir_name "bin/vmor_cli.exe"

let run_cli ?(env = []) args =
  (* -u scrubs ambient test configuration; assignments after it set the
     variables this test is about. *)
  let cmd =
    Printf.sprintf "env -u VMOR_DEADLINE -u VMOR_DOMAINS %s %s %s 2>&1"
      (String.concat " " (List.map Filename.quote env))
      (Filename.quote cli_exe) args
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + s
  in
  (code, Buffer.contents buf)

let check_exit name expected (code, out) =
  if code <> expected then
    Alcotest.failf "%s: expected exit %d, got %d\n%s" name expected code out

let test_cli_domains () =
  let base = "reduce --model nltl-v --scale 0.1 --orders 3,1,0" in
  check_exit "parallel reduce runs clean" 0 (run_cli (base ^ " --domains 4"));
  let code, out = run_cli (base ^ " --domains nope") in
  check_exit "--domains nope" 2 (code, out);
  Alcotest.(check bool)
    (Printf.sprintf "usage error names the flag (%s)" out)
    true (contains ~needle:"--domains" out);
  check_exit "--domains 0" 2 (run_cli (base ^ " --domains 0"));
  check_exit "--domains 65" 2 (run_cli (base ^ " --domains 65"));
  check_exit "VMOR_DOMAINS=99" 2 (run_cli ~env:[ "VMOR_DOMAINS=99" ] base);
  check_exit "VMOR_DOMAINS=2 runs clean" 0
    (run_cli ~env:[ "VMOR_DOMAINS=2" ] base);
  (* the env var is only consulted when the flag is absent, so a bad
     env value under an explicit good flag still runs *)
  check_exit "flag overrides env" 0
    (run_cli ~env:[ "VMOR_DOMAINS=99" ] (base ^ " --domains 2"))

(* ---- domain-safety baseline: zero shared-write exports ---- *)

let test_domain_safety_baseline () =
  let path =
    Filename.concat Filename.parent_dir_name "tools/lint/domain_safety.expected"
  in
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool) "baseline records zero shared writes" true
    (contains ~needle:"0 writes_shared" src);
  Alcotest.(check bool) "no shared-read exports either" true
    (contains ~needle:"0 reads_shared" src);
  Alcotest.(check bool) "reduce_legacy is gone from the surface" false
    (contains ~needle:"reduce_legacy" src)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "par.combinators",
      [
        tc "ambient lane count scoping and clamping" `Quick
          test_ambient_scoping;
        tc "parallel_for covers the range exactly once" `Quick
          test_parallel_for_covers_range;
        tc "tiles partition the range" `Quick test_tiles_partition;
        tc "map_list/map_reduce keep serial order" `Quick
          test_map_preserves_order;
        tc "lowest-index exception wins" `Quick test_lowest_index_exception;
        tc "nested regions degrade to serial" `Quick
          test_nested_region_degrades_serial;
      ] );
    ( "par.determinism",
      [
        tc "reduce at 1 and 4 domains is bit-identical" `Slow
          test_reduce_bit_identical;
        tc "multipoint reduce is bit-identical" `Slow
          test_multipoint_bit_identical;
        tc "autoselect is bit-identical" `Slow test_autoselect_bit_identical;
        tc "freq_sweep is bit-identical" `Quick test_freq_sweep_bit_identical;
      ] );
    ( "par.budget",
      [
        tc "stall under 4 domains: valid ROM or typed raise" `Slow
          test_stall_under_parallelism;
        tc "multipoint stall under 4 domains never hangs" `Slow
          test_multipoint_stall_under_parallelism;
      ] );
    ( "par.surface",
      [
        tc "Options.make validates domains" `Quick
          test_options_domains_validation;
        tc "CLI --domains/VMOR_DOMAINS exit 2 on bad values" `Slow
          test_cli_domains;
        tc "domain-safety baseline has zero shared writes" `Quick
          test_domain_safety_baseline;
      ] );
  ]
