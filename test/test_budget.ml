(* Tests for the compute-budget layer (DESIGN.md §13): the ambient
   slot, the deterministic virtual-clock cancellation via
   [Faultify.Stall], per-site cooperative cancellation in the ODE
   integrators / Arnoldi / ladder / Atmor / Autoselect, anytime-ROM
   validity of every best-effort result, the 4-vs-5 exit-code boundary
   at the CLI, and bit-identical determinism of budget-unbounded runs.

   No test sleeps: deadlines are blown by advancing the virtual clock
   skew (a [Stall] fault on a scheduled kernel call), so each
   cancellation point fires at an exact deterministic call index. *)

open La
module Budget = Robust.Budget

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let has_action report prefix =
  List.exists
    (fun (e : Robust.Report.event) ->
      String.length e.action >= String.length prefix
      && String.sub e.action 0 (String.length prefix) = prefix)
    report

let has_budget_event report =
  List.exists
    (fun (e : Robust.Report.event) -> Budget.is_budget_error e.error)
    report

(* A fixed policy so the tests do not depend on VMOR_MAX_RETRIES. *)
let test_policy =
  {
    Robust.Policy.max_retries = 4;
    nudge_eps = 1e-4;
    nudge_base = 1.0;
    tikhonov_mu = 1e-8;
  }

(* Small SISO QLDAE with a diagonal stable G1 and a weak quadratic
   coupling — cheap enough to reduce dozens of times in the stall
   sweeps below. *)
let diag_qldae () =
  let n = 3 in
  let g1 = Mat.diag (Vec.of_list [ -1.0; -2.0; -3.0 ]) in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n
      (Mat.init n (n * n) (fun i j -> 0.02 /. float_of_int (i + j + 1)))
  in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  Volterra.Qldae.make ~g2 ~g1 ~b ~c ()

let small_nltl () =
  Circuit.Models.qldae (Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) ())

let orthonormality v =
  Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose v) v) (Mat.identity (Mat.cols v)))

let step_input _t = Vec.of_list [ 1.0 ]

(* ---- construction and environment ---- *)

let test_make_validation () =
  let invalid f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative deadline rejected" true
    (invalid (fun () -> Budget.make ~deadline:(-1.0) ()));
  Alcotest.(check bool) "zero deadline rejected" true
    (invalid (fun () -> Budget.make ~deadline:0.0 ()));
  Alcotest.(check bool) "negative step limit rejected" true
    (invalid (fun () -> Budget.make ~max_ode_steps:(-1) ()));
  (* unbounded budgets construct fine and nothing is ambient outside
     an install *)
  let _ = Budget.unbounded () in
  Alcotest.(check bool) "no ambient budget by default" true
    (Budget.installed () = None)

let test_of_env () =
  let with_env v f =
    Unix.putenv "VMOR_DEADLINE" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "VMOR_DEADLINE" "") f
  in
  with_env "" (fun () ->
      Alcotest.(check bool) "empty VMOR_DEADLINE ignored" true
        (Budget.of_env () = None));
  with_env "2.5" (fun () ->
      match Budget.of_env () with
      | Some _ -> ()
      | None -> Alcotest.fail "VMOR_DEADLINE=2.5 should build a budget");
  let rejects v =
    with_env v (fun () ->
        match Budget.of_env () with
        | exception Invalid_argument _ -> true
        | _ -> false)
  in
  Alcotest.(check bool) "junk VMOR_DEADLINE rejected" true (rejects "junk");
  Alcotest.(check bool) "negative VMOR_DEADLINE rejected" true (rejects "-3")

let test_ambient_slot () =
  Alcotest.(check bool) "starts empty" true (Budget.installed () = None);
  (* None leaves whatever is ambient untouched *)
  let outer = Budget.make ~deadline:60.0 () in
  Budget.with_budget (Some outer) (fun () ->
      (match Budget.installed () with
      | Some b -> Alcotest.(check bool) "outer installed" true (b == outer)
      | None -> Alcotest.fail "no budget installed");
      Budget.with_budget None (fun () ->
          match Budget.installed () with
          | Some b ->
              Alcotest.(check bool) "None passes ambient through" true
                (b == outer)
          | None -> Alcotest.fail "None cleared the ambient budget");
      (* nesting restores the outer budget *)
      let inner = Budget.unbounded () in
      Budget.with_budget (Some inner) (fun () ->
          match Budget.installed () with
          | Some b -> Alcotest.(check bool) "inner wins while nested" true (b == inner)
          | None -> Alcotest.fail "nested install missing");
      match Budget.installed () with
      | Some b -> Alcotest.(check bool) "outer restored after nest" true (b == outer)
      | None -> Alcotest.fail "outer budget lost after nested install");
  Alcotest.(check bool) "empty again after install" true
    (Budget.installed () = None);
  (* the installer restores even when the body raises *)
  (try
     Budget.with_budget
       (Some (Budget.unbounded ()))
       (fun () -> failwith "body")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after a raising body" true
    (Budget.installed () = None)

let test_fast_path_counts_no_polls () =
  Alcotest.(check string) "counter name" "budget_poll"
    (Obs.Metrics.name Obs.Metrics.Budget_poll);
  let before = Obs.Metrics.get Obs.Metrics.Budget_poll in
  for _ = 1 to 100 do
    Budget.check "test.fast-path";
    ignore (Budget.poll "test.fast-path");
    ignore (Budget.tick_ode_step "test.fast-path")
  done;
  Alcotest.(check int) "no-budget polls are free" before
    (Obs.Metrics.get Obs.Metrics.Budget_poll);
  (* an unbounded budget can never bind, so its polls also skip the
     slow path — installing it must cost (and count) nothing *)
  Budget.with_budget
    (Some (Budget.unbounded ()))
    (fun () ->
      for _ = 1 to 50 do
        Budget.check "test.unbounded"
      done);
  Alcotest.(check int) "unbounded budget polls stay on the fast path"
    before
    (Obs.Metrics.get Obs.Metrics.Budget_poll);
  Budget.with_budget
    (Some (Budget.make ~deadline:3600.0 ()))
    (fun () ->
      for _ = 1 to 50 do
        Budget.check "test.slow-path"
      done);
  Alcotest.(check int) "binding budget counts slow-path polls"
    (before + 50)
    (Obs.Metrics.get Obs.Metrics.Budget_poll);
  (* The same property at a real kernel site: a k = 2 shifted solve
     polls once per tensor block that [tri_solve] visits, the order-2
     block plus its n order-1 sub-blocks.  An unbounded budget takes
     none of those polls; a binding one takes exactly all of them. *)
  let n = 12 in
  let g = Mat.init n n (fun i j -> if i = j then -.float_of_int (i + 1) else 0.05) in
  let ks = Ksolve.prepare g in
  let v = Vec.init (n * n) (fun i -> 1.0 /. float_of_int (i + 1)) in
  let work () =
    for _ = 1 to 4 do
      ignore (Ksolve.solve_shifted_real ks ~k:2 ~sigma:1.0 v)
    done
  in
  let polls budget =
    let p0 = Obs.Metrics.get Obs.Metrics.Budget_poll in
    Budget.with_budget (Some budget) work;
    Obs.Metrics.get Obs.Metrics.Budget_poll - p0
  in
  Alcotest.(check int) "unbounded budget: Ksolve takes no slow-path poll" 0
    (polls (Budget.unbounded ()));
  (* 4 solves * (1 + 12) blocks *)
  Alcotest.(check int) "binding budget: one poll per tri_solve block" 52
    (polls (Budget.make ~deadline:3600.0 ()))

(* The other Ksolve poll site: the symmetric third-order solve behind
   every H3 series polls once per level i, so n times per solve. *)
let test_sym3_polls_per_level () =
  let n = 6 in
  let g = Mat.init n n (fun i j -> if i = j then -.float_of_int (i + 1) else 0.05) in
  let ks = Ksolve.prepare g in
  let w = Cvec.of_real (Vec.init (n * n * n) (fun i -> 1.0 /. float_of_int (i + 1))) in
  let polls budget =
    let p0 = Obs.Metrics.get Obs.Metrics.Budget_poll in
    Budget.with_budget (Some budget) (fun () ->
        ignore (Ksolve.tri_solve_sym3 ks ~sigma:{ Complex.re = 1.0; im = 0.0 } w));
    Obs.Metrics.get Obs.Metrics.Budget_poll - p0
  in
  Alcotest.(check int) "unbounded budget: no slow-path poll" 0
    (polls (Budget.unbounded ()));
  Alcotest.(check int) "binding budget: one poll per level" n
    (polls (Budget.make ~deadline:3600.0 ()))

(* ---- deterministic cancellation: the virtual clock ---- *)

let test_stall_advances_virtual_clock () =
  Budget.with_budget
    (Some (Budget.make ~deadline:1000.0 ()))
    (fun () ->
      Alcotest.(check bool) "deadline intact before the stall" true
        (Budget.poll "test.stall" = None);
      let f =
        Robust.Faultify.make
          (Robust.Faultify.plan (Robust.Faultify.Stall 2000.0))
      in
      let out = Robust.Faultify.inject f [| 1.0; 2.0 |] in
      Alcotest.(check (array (float 0.0))) "stall leaves the payload intact"
        [| 1.0; 2.0 |] out;
      Alcotest.(check int) "stall fired" 1 (Robust.Faultify.fired f);
      match Budget.poll "test.stall" with
      | Some e ->
          Alcotest.(check bool) "typed as a budget error" true
            (Budget.is_budget_error e);
          let s = Robust.Error.to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "mentions the deadline (%s)" s)
            true
            (contains ~needle:"deadline" s)
      | None -> Alcotest.fail "poll after a 2000 s stall should fail");
  (* a fresh install resets the skew: the same deadline is healthy *)
  Budget.with_budget
    (Some (Budget.make ~deadline:1000.0 ()))
    (fun () ->
      Alcotest.(check bool) "skew reset on install" true
        (Budget.poll "test.stall" = None))

let test_counted_limits () =
  Budget.with_budget
    (Some (Budget.make ~max_ode_steps:3 ()))
    (fun () ->
      for i = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "ode step %d within budget" i)
          true
          (Budget.tick_ode_step "test.counted" = None)
      done;
      match Budget.tick_ode_step "test.counted" with
      | Some e ->
          Alcotest.(check bool) "4th step over budget" true
            (Budget.is_budget_error e);
          Alcotest.(check bool) "names the resource" true
            (contains ~needle:"ode-steps" (Robust.Error.to_string e))
      | None -> Alcotest.fail "4th ode step should exceed max_ode_steps=3");
  Budget.with_budget
    (Some (Budget.make ~max_arnoldi_iters:2 ()))
    (fun () ->
      Budget.tick_arnoldi_iter "test.counted";
      Budget.tick_arnoldi_iter "test.counted";
      match Budget.tick_arnoldi_iter "test.counted" with
      | exception Robust.Error.Error e ->
          Alcotest.(check bool) "3rd arnoldi iter raises typed" true
            (Budget.is_budget_error e)
      | () -> Alcotest.fail "3rd arnoldi iter should raise")

(* ---- ODE integrators: partial-series truncation ---- *)

let solvers =
  [
    ("rk4", Volterra.Qldae.Rk4 0.02);
    ("rkf45", Volterra.Qldae.Rkf45 { rtol = 1e-7; atol = 1e-9 });
    ("imtrap", Volterra.Qldae.Imtrap 0.02);
  ]

let test_ode_partial_series () =
  let q = diag_qldae () in
  List.iter
    (fun (name, solver) ->
      let full =
        Volterra.Qldae.simulate ~solver q ~input:step_input ~t0:0.0 ~t1:5.0
          ~samples:51
      in
      Alcotest.(check bool) (name ^ ": unbudgeted run complete") false
        full.Ode.Types.partial;
      Alcotest.(check int) (name ^ ": unbudgeted sample count") 51
        (Array.length full.Ode.Types.times);
      let sol =
        Budget.with_budget
          (Some (Budget.make ~max_ode_steps:7 ()))
          (fun () ->
            Volterra.Qldae.simulate ~solver q ~input:step_input ~t0:0.0 ~t1:5.0
              ~samples:51)
      in
      let len = Array.length sol.Ode.Types.times in
      Alcotest.(check bool) (name ^ ": truncated run flagged partial") true
        sol.Ode.Types.partial;
      Alcotest.(check bool)
        (Printf.sprintf "%s: prefix shorter than the grid (%d < 51)" name len)
        true (len < 51);
      Alcotest.(check bool) (name ^ ": at least the initial sample") true
        (len >= 1);
      Alcotest.(check int) (name ^ ": states match times") len
        (Array.length sol.Ode.Types.states);
      Array.iteri
        (fun i t ->
          if t <> full.Ode.Types.times.(i) then
            Alcotest.failf "%s: time grid diverges at %d" name i)
        sol.Ode.Types.times;
      Alcotest.(check bool) (name ^ ": partial states finite") true
        (Array.for_all Vec.is_finite sol.Ode.Types.states))
    solvers;
  (* fixed-step RK4 is deterministic: the truncated prefix is bit-equal
     to the corresponding prefix of the unbudgeted run *)
  let solver = Volterra.Qldae.Rk4 0.02 in
  let full =
    Volterra.Qldae.simulate ~solver q ~input:step_input ~t0:0.0 ~t1:5.0
      ~samples:51
  in
  let part =
    Budget.with_budget
      (Some (Budget.make ~max_ode_steps:40 ()))
      (fun () ->
        Volterra.Qldae.simulate ~solver q ~input:step_input ~t0:0.0 ~t1:5.0
          ~samples:51)
  in
  Array.iteri
    (fun i xs ->
      Array.iteri
        (fun j v ->
          if v <> full.Ode.Types.states.(i).(j) then
            Alcotest.failf "rk4 prefix differs at sample %d component %d" i j)
        xs)
    part.Ode.Types.states

(* ---- Arnoldi: truncated-but-orthonormal basis ---- *)

let test_arnoldi_truncates_orthonormal () =
  let n = 10 in
  let a =
    Mat.init n n (fun i j ->
        if i = j then -.float_of_int (i + 1)
        else if abs (i - j) = 1 then 0.1
        else 0.0)
  in
  let matvec v = Mat.mul_vec a v in
  let b = Vec.init n (fun _ -> 1.0) in
  let clean = Mor.Arnoldi.run ~matvec ~b ~k:8 () in
  Alcotest.(check int) "clean run builds the full basis" 8
    (Mat.cols clean.Mor.Arnoldi.v);
  let recorder = Robust.Report.recorder () in
  let r =
    Budget.with_budget
      (Some (Budget.make ~max_arnoldi_iters:3 ()))
      (fun () -> Mor.Arnoldi.run ~recorder ~matvec ~b ~k:8 ())
  in
  let cols = Mat.cols r.Mor.Arnoldi.v in
  Alcotest.(check bool) "budget reported as breakdown" true
    r.Mor.Arnoldi.breakdown;
  Alcotest.(check bool)
    (Printf.sprintf "basis truncated (%d < 8)" cols)
    true (cols < 8);
  Alcotest.(check bool) "some columns survive" true (cols >= 1);
  check_small "truncated basis stays orthonormal"
    (orthonormality r.Mor.Arnoldi.v) 1e-12;
  Alcotest.(check bool) "truncation recorded as degrade" true
    (has_action (Robust.Report.events recorder) "degrade:truncate-basis");
  Alcotest.(check bool) "recorded error is a budget error" true
    (has_budget_event (Robust.Report.events recorder))

(* ---- ladder: budget gates the retries ---- *)

let test_ladder_budget_stops_retries () =
  let loc = Robust.Error.loc ~subsystem:"test" ~operation:"ladder" in
  let classify = function
    | Failure d -> Some (Robust.Error.Contract_violation { loc; detail = d })
    | _ -> None
  in
  let rungs =
    [ ("bad", fun () -> failwith "rung fails"); ("good", fun () -> 42) ]
  in
  (* sanity: without a budget the second rung rescues the run *)
  (match Robust.Policy.run_ladder ~loc ~classify rungs with
  | Ok v -> Alcotest.(check int) "unbudgeted ladder recovers" 42 v
  | Error e -> Alcotest.failf "unbudgeted ladder failed: %s" (Robust.Error.to_string e));
  let recorder = Robust.Report.recorder () in
  let result =
    Budget.with_budget
      (Some (Budget.make ~max_ladder_attempts:1 ()))
      (fun () -> Robust.Policy.run_ladder ~recorder ~loc ~classify rungs)
  in
  (match result with
  | Error (Robust.Error.Budget_exhausted { last = Some l; _ } as e) ->
      Alcotest.(check bool) "terminal failure is the budget" true
        (Budget.is_budget_error l);
      Alcotest.(check bool) "wrapper classifies as budget error" true
        (Budget.is_budget_error e)
  | Error e ->
      Alcotest.failf "expected Budget_exhausted, got %s" (Robust.Error.to_string e)
  | Ok _ -> Alcotest.fail "one attempt must not reach the second rung");
  Alcotest.(check bool) "retry stop recorded" true
    (has_action (Robust.Report.events recorder) "budget:stop-retries")

(* ---- anytime ROMs: a stall sweep over every cancellation point ----

   For each scheduled call index the growth engine's resolvent stalls
   the virtual clock past the deadline, so the budget expires at that
   exact kernel call. Whatever the reducer then does must be one of
   exactly two things: produce a valid (orthonormal-basis) best-effort
   ROM with the budget failure in its degradation report, or raise the
   typed budget error. Sweeping the call index walks the cancellation
   across every poll site. *)

let check_valid_result name (r : Mor.Atmor.result) =
  let order = Mor.Atmor.order r in
  Alcotest.(check bool) (name ^ ": nonempty ROM") true (order >= 1);
  Alcotest.(check int) (name ^ ": rom dimension matches basis") order
    (Volterra.Qldae.dim r.Mor.Atmor.rom);
  check_small (name ^ ": basis orthonormal") (orthonormality r.Mor.Atmor.basis)
    1e-10

let stall_sweep ~name ~max_call ~reduce_with_fault ~order_of ~report_of
    ~valid =
  let produced_degraded = ref 0 and exhausted = ref 0 in
  for on_call = 1 to max_call do
    let label = Printf.sprintf "%s stall@%d" name on_call in
    let fault = Robust.Faultify.plan ~on_call (Robust.Faultify.Stall 3600.0) in
    Budget.with_budget
      (Some (Budget.make ~deadline:60.0 ()))
      (fun () ->
        match reduce_with_fault fault with
        | r ->
            valid label r;
            Alcotest.(check bool) (label ^ ": no over-production") true
              (order_of r >= 1);
            if has_budget_event (report_of r) then incr produced_degraded
        | exception Robust.Error.Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: raise is typed budget (%s)" label
                 (Robust.Error.to_string e))
              true (Budget.is_budget_error e);
            incr exhausted)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: some stalls still produce a degraded ROM (%d/%d)"
       name !produced_degraded max_call)
    true (!produced_degraded >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "%s: the earliest stalls exhaust the budget (%d/%d)" name
       !exhausted max_call)
    true (!exhausted >= 1)

let test_atmor_stall_sweep () =
  let q = diag_qldae () in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 1 } in
  let clean = Mor.Atmor.reduce ~policy:test_policy ~orders q in
  let clean_order = Mor.Atmor.order clean in
  stall_sweep ~name:"atmor" ~max_call:25
    ~reduce_with_fault:(fun fault ->
      Mor.Atmor.reduce ~policy:test_policy ~fault ~orders q)
    ~order_of:Mor.Atmor.order
    ~report_of:(fun (r : Mor.Atmor.result) -> r.Mor.Atmor.degradation)
    ~valid:(fun label r ->
      check_valid_result label r;
      Alcotest.(check bool) (label ^ ": no larger than the clean ROM") true
        (Mor.Atmor.order r <= clean_order))

let test_autoselect_stall_sweep () =
  let q = diag_qldae () in
  let max_orders = { Mor.Atmor.k1 = 6; k2 = 3; k3 = 2 } in
  stall_sweep ~name:"autoselect" ~max_call:25
    ~reduce_with_fault:(fun fault ->
      Mor.Autoselect.reduce ~policy:test_policy ~fault ~max_orders q)
    ~order_of:(fun (s : Mor.Autoselect.selection) -> Mor.Atmor.order s.result)
    ~report_of:(fun (s : Mor.Autoselect.selection) ->
      s.result.Mor.Atmor.degradation)
    ~valid:(fun label (s : Mor.Autoselect.selection) ->
      check_valid_result label s.result;
      let c = s.Mor.Autoselect.chosen in
      Alcotest.(check bool) (label ^ ": chosen orders within limits") true
        (c.Mor.Atmor.k1 <= max_orders.Mor.Atmor.k1
        && c.Mor.Atmor.k2 <= max_orders.Mor.Atmor.k2
        && c.Mor.Atmor.k3 <= max_orders.Mor.Atmor.k3))

(* ---- determinism: an unbounded budget is bit-identical to none ---- *)

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
  done

let test_unbounded_budget_bit_identical () =
  let q = small_nltl () in
  let orders = { Mor.Atmor.k1 = 4; k2 = 2; k3 = 1 } in
  let bare = Vmor.reduce ~options:(Vmor.Options.make ()) ~orders q in
  let budgeted =
    Vmor.reduce
      ~options:
        (Vmor.Options.make ~budget:(Budget.make ~deadline:3600.0 ()) ())
      ~orders q
  in
  check_same_reduction "reduce under generous deadline" bare budgeted;
  let sim b =
    Budget.with_budget b (fun () ->
        Volterra.Qldae.simulate ~solver:(Volterra.Qldae.Rk4 0.02)
          (diag_qldae ()) ~input:step_input ~t0:0.0 ~t1:5.0 ~samples:51)
  in
  let s0 = sim None and s1 = sim (Some (Budget.make ~deadline:3600.0 ())) in
  Alcotest.(check bool) "budgeted transient complete" false
    s1.Ode.Types.partial;
  Array.iteri
    (fun i xs ->
      Array.iteri
        (fun j v ->
          if v <> s0.Ode.Types.states.(i).(j) then
            Alcotest.failf "transient differs at sample %d component %d" i j)
        xs)
    s1.Ode.Types.states

(* ---- CLI: the 4-vs-5 boundary and the documented exit table ---- *)

let cli_exe = Filename.concat Filename.parent_dir_name "bin/vmor_cli.exe"

let run_cli args =
  (* -u VMOR_DEADLINE: [test_of_env] can only reset the variable to ""
     ([Unix.putenv] cannot unset), and an empty value must not leak
     into the spawned CLI. *)
  let cmd =
    Printf.sprintf "env -u VMOR_DEADLINE %s %s 2>&1" (Filename.quote cli_exe)
      args
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

let test_cli_exit_codes () =
  let base = "reduce --model nltl-v --scale 0.1 --orders 3,1,0" in
  check_exit "clean reduce" 0 (run_cli base);
  let code, out = run_cli (base ^ " --deadline 0.000001") in
  check_exit "hopeless deadline" 5 (code, out);
  Alcotest.(check bool)
    (Printf.sprintf "exit-5 message names the budget (%s)" out)
    true
    (contains ~needle:"compute budget exhausted" out);
  let code, out =
    run_cli
      "simulate --model nltl-v --scale 0.1 --t1 5 --samples 101 --max-steps 5"
  in
  check_exit "budgeted transient" 4 (code, out);
  Alcotest.(check bool)
    (Printf.sprintf "exit-4 transient reports the partial prefix (%s)" out)
    true
    (contains ~needle:"partial" out);
  check_exit "usage error beats budget" 2 (run_cli (base ^ " --max-steps=-7"))

(* The --help EXIT STATUS section and the README exit-code table must
   list the same vmor-specific codes (cmdliner's own 123/124/125 are
   excluded). *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let leading_int line =
  let line = String.trim line in
  let rec span i =
    if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
      span (i + 1)
    else i
  in
  let n = span 0 in
  if n = 0 then None
  else if n < String.length line && line.[n] <> ' ' then None
  else int_of_string_opt (String.sub line 0 n)

let test_help_readme_exit_sync () =
  let code, help = run_cli "--help=plain" in
  check_exit "--help" 0 (code, help);
  let lines = String.split_on_char '\n' help in
  let rec in_section acc seen = function
    | [] -> List.rev acc
    | line :: rest ->
        let heading =
          String.length line > 0 && line.[0] <> ' ' && String.trim line <> ""
        in
        if not seen then
          in_section acc (String.trim line = "EXIT STATUS") rest
        else if heading then List.rev acc
        else
          let acc =
            match leading_int line with
            | Some c when c <= 5 -> c :: acc
            | _ -> acc
          in
          in_section acc true rest
  in
  let help_codes = List.sort_uniq compare (in_section [] false lines) in
  let readme_codes =
    read_lines (Filename.concat Filename.parent_dir_name "README.md")
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if String.length line > 4 && String.sub line 0 3 = "| `" then
             int_of_string_opt
               (String.sub line 3 (String.index_from line 3 '`' - 3))
           else None)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int))
    "README exit table matches vmor --help" help_codes readme_codes;
  Alcotest.(check bool) "budget exit code documented" true
    (List.mem 5 help_codes)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "budget.core",
      [
        tc "make validation" `Quick test_make_validation;
        tc "VMOR_DEADLINE parsing" `Quick test_of_env;
        tc "ambient slot install/restore/nesting" `Quick test_ambient_slot;
        tc "fast path is poll-free" `Quick test_fast_path_counts_no_polls;
        tc "Stall advances the virtual clock" `Quick
          test_stall_advances_virtual_clock;
        tc "counted limits (steps, iters)" `Quick test_counted_limits;
        tc "symmetric k = 3 solve polls once per level" `Quick
          test_sym3_polls_per_level;
      ] );
    ( "budget.anytime",
      [
        tc "ODE integrators truncate to a partial prefix" `Quick
          test_ode_partial_series;
        tc "Arnoldi truncates to an orthonormal basis" `Quick
          test_arnoldi_truncates_orthonormal;
        tc "ladder stops retrying on a spent budget" `Quick
          test_ladder_budget_stops_retries;
        tc "Atmor stall sweep: valid ROM or typed raise" `Slow
          test_atmor_stall_sweep;
        tc "Autoselect stall sweep: valid selection or typed raise" `Slow
          test_autoselect_stall_sweep;
        tc "unbounded budget is bit-identical to none" `Quick
          test_unbounded_budget_bit_identical;
      ] );
    ( "budget.cli",
      [
        tc "exit codes 0/2/4/5" `Slow test_cli_exit_codes;
        tc "help and README exit tables agree" `Quick
          test_help_readme_exit_sync;
      ] );
  ]
