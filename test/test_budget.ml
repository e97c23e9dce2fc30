(* Tests for the compute-budget layer (DESIGN.md §13): the ambient
   slot, the deterministic virtual-clock cancellation via
   [Faultify.Stall], per-site cooperative cancellation in the ODE
   integrators / Atmor / Autoselect, anytime-ROM
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

let has_budget_event report =
  List.exists
    (fun (e : Robust.Report.event) -> Budget.is_budget_error e.error)
    report

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
  (* a zero step limit is valid: it binds on the first tick *)
  let _ = Budget.make ~max_ode_steps:0 () in
  let _ = Budget.unbounded () in
  ()

(* Which budget is ambient, seen through one step tick: a tick with
   nothing installed (or an unbounded budget) is free; a binding budget
   fails it on the resource that is spent. *)
let ambient_resource () =
  match Budget.tick_ode_step "test.ambient" with
  | None -> "none"
  | Some (Robust.Error.Budget_exceeded { resource; _ }) -> resource
  | Some e -> Alcotest.failf "unexpected error: %s" (Robust.Error.to_string e)

let test_ambient_slot () =
  Alcotest.(check string) "starts empty" "none" (ambient_resource ());
  (* [outer] binds on ODE steps; [inner] on a deadline spent through
     the virtual skew, so the two are told apart by the failing
     resource *)
  let outer () = Budget.make ~max_ode_steps:0 () in
  Budget.with_budget (Some (outer ())) (fun () ->
      Alcotest.(check string) "outer installed" "ode-steps"
        (ambient_resource ());
      (* None leaves whatever is ambient untouched *)
      Budget.with_budget None (fun () ->
          Alcotest.(check string) "None passes ambient through" "ode-steps"
            (ambient_resource ()));
      Budget.with_budget (Some (Budget.make ~deadline:1.0 ())) (fun () ->
          Budget.advance_skew 10.0;
          Alcotest.(check string) "inner wins while nested" "deadline"
            (ambient_resource ()));
      Alcotest.(check string) "outer restored after nest" "ode-steps"
        (ambient_resource ()));
  Alcotest.(check string) "empty again after install" "none"
    (ambient_resource ());
  (* the installer restores even when the body raises *)
  (try Budget.with_budget (Some (outer ())) (fun () -> failwith "body")
   with Failure _ -> ());
  Alcotest.(check string) "restored after a raising body" "none"
    (ambient_resource ())

(* Exhaustion latches: once a poll sees the deadline spent, every later
   poll reads the clock and fails, where an unlatched budget would skip
   the next 31 clock reads and pass.  The deadline is spent by the real
   clock (a 1 ms allotment, then a few ms of spinning), not by the
   skew: a nonzero skew makes every poll read the clock anyway. *)
let test_spent_deadline_latches () =
  let b = Budget.make ~deadline:0.001 () in
  let t0 = Obs.Clock.now () in
  while Obs.Clock.now () < t0 +. 0.005 do
    ()
  done;
  Budget.with_budget (Some b) (fun () ->
      for i = 1 to 40 do
        match Budget.poll "test.latch" with
        | Some (Robust.Error.Budget_exceeded { resource = "deadline"; _ }) ->
            ()
        | Some e ->
            Alcotest.failf "unexpected error: %s" (Robust.Error.to_string e)
        | None -> Alcotest.failf "poll %d on a spent deadline passed" i
      done)

(* A nested install restores the skew it reset: an outer deadline that
   a virtual stall spent stays spent once the inner install returns. *)
let test_nested_install_keeps_spent_deadline () =
  Budget.with_budget (Some (Budget.make ~deadline:60.0 ())) (fun () ->
      Budget.advance_skew 120.0;
      let spent what =
        match Budget.poll "test.nested" with
        | Some (Robust.Error.Budget_exceeded { resource = "deadline"; _ }) -> ()
        | Some e ->
            Alcotest.failf "%s: unexpected error: %s" what
              (Robust.Error.to_string e)
        | None -> Alcotest.failf "%s: the spent deadline polled clean" what
      in
      spent "before the nested install";
      Budget.with_budget (Some (Budget.unbounded ())) ignore;
      spent "after the nested install")

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
   every H3 series polls once per level, a diagonal block of T: n times
   per solve on a triangular T. A 2x2 block (a complex pair) is one
   level of the symmetric solve and one node of the k-solve recursion,
   which polls once per node: 1 + nb for k = 2 over nb blocks. *)
let test_sym3_polls_per_level () =
  let polls budget f =
    let p0 = Obs.Metrics.get Obs.Metrics.Budget_poll in
    Budget.with_budget (Some budget) (fun () -> ignore (f ()));
    Obs.Metrics.get Obs.Metrics.Budget_poll - p0
  in
  let binding = Budget.make ~deadline:3600.0 () in
  let n = 6 in
  let g = Mat.init n n (fun i j -> if i = j then -.float_of_int (i + 1) else 0.05) in
  let ks = Ksolve.prepare g in
  let w = Vec.init (n * n * n) (fun i -> 1.0 /. float_of_int (i + 1)) in
  let sym3 () = Ksolve.tri_solve_sym3_real ks ~sigma:1.0 w in
  Alcotest.(check int) "unbounded budget: no slow-path poll" 0
    (polls (Budget.unbounded ()) sym3);
  Alcotest.(check int) "binding budget: one poll per level" n (polls binding sym3);
  (* the varistor's G1: complex pairs, so fewer blocks than states *)
  let q = Circuit.Models.qldae (Circuit.Models.varistor ~sections:4 ()) in
  let ks = Ksolve.prepare q.Volterra.Qldae.g1 in
  let n = Volterra.Qldae.dim q in
  let nb = Array.length (Schur.blocks (Ksolve.schur ks)) in
  Alcotest.(check bool) (Printf.sprintf "varistor has 2x2 blocks (%d blocks, n = %d)" nb n) true
    (nb < n);
  let w3 = Vec.init (n * n * n) (fun i -> 1.0 /. float_of_int (i + 1)) in
  Alcotest.(check int) "varistor sym3: one poll per level block" nb
    (polls binding (fun () -> Ksolve.tri_solve_sym3_real ks ~sigma:0.5 w3));
  let w2 = Vec.init (n * n) (fun i -> 1.0 /. float_of_int (i + 1)) in
  Alcotest.(check int) "varistor k = 2: one poll per node" (1 + nb)
    (polls binding (fun () -> Ksolve.tri_solve_shifted_real ks ~k:2 ~sigma:0.5 w2))

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
      | None -> Alcotest.fail "4th ode step should exceed max_ode_steps=3")

(* A step tick polls the deadline too: once the (virtual) clock has
   passed it, the tick fails on the deadline with steps still left. *)
let test_deadline_binds_step_tick () =
  Budget.with_budget
    (Some (Budget.make ~deadline:1.0 ~max_ode_steps:1000 ()))
    (fun () ->
      Alcotest.(check bool) "fresh budget allows a step" true
        (Budget.tick_ode_step "test.tick" = None);
      Budget.advance_skew 5.0;
      match Budget.tick_ode_step "test.tick" with
      | Some e ->
          let s = Robust.Error.to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "names the deadline (%s)" s)
            true
            (contains ~needle:"deadline" s
            && not (contains ~needle:"ode-steps" s))
      | None -> Alcotest.fail "a spent deadline must fail the step tick")

(* The step counter is shared by every integrator run under one
   install: a second run starts from what the first one spent, and a
   fresh install starts from zero. *)
let test_step_counter_is_cumulative () =
  let q = diag_qldae () in
  let run () =
    Volterra.Qldae.simulate ~solver:(Volterra.Qldae.Rk4 0.02) q
      ~input:step_input ~t0:0.0 ~t1:1.0 ~samples:11
  in
  let within_limit () =
    Budget.with_budget (Some (Budget.make ~max_ode_steps:80 ()))
  in
  within_limit () (fun () ->
      Alcotest.(check bool) "first run fits the limit" false
        (run ()).Ode.Types.partial;
      Alcotest.(check bool) "second run exhausts the shared counter" true
        (run ()).Ode.Types.partial);
  within_limit () (fun () ->
      Alcotest.(check bool) "a fresh install starts a fresh counter" false
        (run ()).Ode.Types.partial)

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

(* ---- the resolvent's Tikhonov retry under a budget ---- *)

(* Each k = 1 solve polls the deadline once, the Tikhonov retry of a
   solve on a pole once more: two H1 moments poll twice at a clean s0
   and four times on a pole of G1 — under a binding budget only. *)
let test_resolvent_polls_per_attempt () =
  let q = diag_qldae () in
  let polls budget s0 =
    let before = Obs.Metrics.get Obs.Metrics.Budget_poll in
    let ms =
      Budget.with_budget budget (fun () ->
          Volterra.Assoc.h1_moments (Volterra.Assoc.create ~s0 q) ~k:2)
    in
    Alcotest.(check bool) "moments finite" true (List.for_all Vec.is_finite ms);
    Obs.Metrics.get Obs.Metrics.Budget_poll - before
  in
  List.iter
    (fun (label, s0, binding) ->
      Alcotest.(check int) (label ^ ", no budget: no polls") 0 (polls None s0);
      Alcotest.(check int)
        (label ^ ", unbounded budget: no polls")
        0
        (polls (Some (Budget.unbounded ())) s0);
      Alcotest.(check int)
        (label ^ ", binding budget: one poll per attempt")
        binding
        (polls (Some (Budget.make ~deadline:1000.0 ())) s0))
    [ ("clean s0", 0.5, 2); ("s0 on a pole", -1.0, 4) ]

(* A deadline already spent stops the first attempt at its poll, so a
   solve on a pole raises the budget error and never retries. *)
let test_spent_budget_skips_retry () =
  let q = diag_qldae () in
  let recorder = Robust.Report.recorder () in
  (match
     Budget.with_budget
       (Some (Budget.make ~deadline:1.0 ()))
       (fun () ->
         Budget.advance_skew 10.0;
         Volterra.Assoc.h1_moments
           (Volterra.Assoc.create ~recorder ~s0:(-1.0) q)
           ~k:1)
   with
  | _ -> Alcotest.fail "a spent deadline must stop the solve"
  | exception Robust.Error.Error e ->
    Alcotest.(check bool) "terminal failure is the budget" true
      (Budget.is_budget_error e));
  Alcotest.(check bool) "no Tikhonov retry recorded" true
    (Robust.Report.is_empty (Robust.Report.events recorder))

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
  let clean = Mor.Atmor.reduce ~orders q in
  let clean_order = Mor.Atmor.order clean in
  stall_sweep ~name:"atmor" ~max_call:25
    ~reduce_with_fault:(fun fault ->
      Mor.Atmor.reduce ~fault ~orders q)
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
      Mor.Autoselect.reduce ~fault ~max_orders q)
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

let run_cli ?(env = []) args =
  (* -u VMOR_DEADLINE: a deadline in the caller's environment must not
     leak into the spawned CLI; assignments after it set what a test is
     about. *)
  let cmd =
    Printf.sprintf "env -u VMOR_DEADLINE %s %s %s 2>&1"
      (String.concat " " (List.map Filename.quote env))
      (Filename.quote Build_tree.vmor_cli)
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
  (* compare under a step limit: the reduction needs no ODE steps, the
     full-model transient is truncated and reported partial *)
  let code, out =
    run_cli "compare --model nltl-v --scale 0.1 --orders 3,1,0 --max-steps 5"
  in
  check_exit "step-limited compare" 4 (code, out);
  Alcotest.(check bool)
    (Printf.sprintf "truncated transient reported (%s)" out)
    true
    (contains ~needle:"partial: compute budget truncated the transient" out);
  (* VMOR_DEADLINE is the env twin of --deadline *)
  check_exit "hopeless VMOR_DEADLINE" 5
    (run_cli ~env:[ "VMOR_DEADLINE=0.000001" ] base);
  check_exit "usage error beats budget" 2 (run_cli (base ^ " --max-steps=-7"))

(* An unknown flag is a cmdliner parse error (exit 124, as the README
   table says) on every budgeted subcommand. *)
let test_cli_unknown_flag () =
  List.iter
    (fun sub ->
      let code, out = run_cli (sub ^ " --model nltl-v --no-such-flag") in
      check_exit (sub ^ " --no-such-flag") 124 (code, out);
      Alcotest.(check bool)
        (Printf.sprintf "%s names the option (%s)" sub out)
        true
        (contains ~needle:"unknown option" out))
    [ "reduce"; "simulate"; "compare"; "autoselect" ]

(* VMOR_DEADLINE goes through the parser of --deadline: a non-number
   is a cmdliner parse error naming the variable (124), a nonpositive
   value a usage error (2). *)
let test_cli_deadline_env_rejected () =
  let base = "reduce --model nltl-v --scale 0.1 --orders 3,1,0" in
  let code, out = run_cli ~env:[ "VMOR_DEADLINE=junk" ] base in
  check_exit "VMOR_DEADLINE=junk" 124 (code, out);
  Alcotest.(check bool)
    (Printf.sprintf "parse error names the variable (%s)" out)
    true
    (contains ~needle:"VMOR_DEADLINE" out);
  check_exit "VMOR_DEADLINE=-3" 2 (run_cli ~env:[ "VMOR_DEADLINE=-3" ] base)

(* A set-but-empty knob means unset, for the budget and lane-count
   variables as for the trace and metrics ones. *)
let test_cli_empty_env_unset () =
  let base = "reduce --model nltl-v --scale 0.1 --orders 3,1,0" in
  List.iter
    (fun var ->
      check_exit (var ^ " empty") 0 (run_cli ~env:[ var ^ "=" ] base))
    [ "VMOR_DEADLINE"; "VMOR_DOMAINS"; "VMOR_TRACE"; "VMOR_METRICS" ]

(* The --help EXIT STATUS section and the README exit-code table must
   list the same codes: vmor's own 0-5 plus cmdliner's 124, the code
   an unknown flag exits with (cmdliner's 123/125 are excluded). *)

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
            | Some c when c <= 5 || c = 124 -> c :: acc
            | _ -> acc
          in
          in_section acc true rest
  in
  let help_codes = List.sort_uniq compare (in_section [] false lines) in
  let readme_codes =
    read_lines (Build_tree.path "README.md")
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
    (List.mem 5 help_codes);
  Alcotest.(check bool) "parse-error exit code documented" true
    (List.mem 124 help_codes)

let suite =
  let tc = Alcotest.test_case in
  [
    ( "budget.core",
      [
        tc "make validation" `Quick test_make_validation;
        tc "ambient slot install/restore/nesting" `Quick test_ambient_slot;
        tc "fast path is poll-free" `Quick test_fast_path_counts_no_polls;
        tc "Stall advances the virtual clock" `Quick
          test_stall_advances_virtual_clock;
        tc "counted limit (ODE steps)" `Quick test_counted_limits;
        tc "symmetric k = 3 solve polls once per level" `Quick
          test_sym3_polls_per_level;
        tc "deadline binds the step tick" `Quick test_deadline_binds_step_tick;
        tc "step counter is shared per install" `Quick
          test_step_counter_is_cumulative;
        tc "a spent deadline latches" `Quick test_spent_deadline_latches;
        tc "a nested install keeps a spent deadline spent" `Quick
          test_nested_install_keeps_spent_deadline;
      ] );
    ( "budget.anytime",
      [
        tc "ODE integrators truncate to a partial prefix" `Quick
          test_ode_partial_series;
        tc "resolvent polls once per attempt" `Quick
          test_resolvent_polls_per_attempt;
        tc "spent budget skips the Tikhonov retry" `Quick
          test_spent_budget_skips_retry;
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
        tc "unknown flag exits 124" `Quick test_cli_unknown_flag;
        tc "malformed VMOR_DEADLINE is rejected" `Quick
          test_cli_deadline_env_rejected;
        tc "empty env knobs mean unset" `Quick test_cli_empty_env_unset;
      ] );
  ]
