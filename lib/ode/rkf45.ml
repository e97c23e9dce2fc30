(* Runge-Kutta-Fehlberg 4(5) with adaptive step-size control. *)

open La

(* Fehlberg tableau. *)
let a2 = 0.25

let a3 = [| 3.0 /. 32.0; 9.0 /. 32.0 |]

let a4 = [| 1932.0 /. 2197.0; -7200.0 /. 2197.0; 7296.0 /. 2197.0 |]

let a5 = [| 439.0 /. 216.0; -8.0; 3680.0 /. 513.0; -845.0 /. 4104.0 |]

let a6 =
  [| -8.0 /. 27.0; 2.0; -3544.0 /. 2565.0; 1859.0 /. 4104.0; -11.0 /. 40.0 |]

(* 5th order solution weights *)
let b5 =
  [|
    16.0 /. 135.0;
    0.0;
    6656.0 /. 12825.0;
    28561.0 /. 56430.0;
    -9.0 /. 50.0;
    2.0 /. 55.0;
  |]

(* 4th order (embedded) weights *)
let b4 =
  [|
    25.0 /. 216.0;
    0.0;
    1408.0 /. 2565.0;
    2197.0 /. 4104.0;
    -0.2;
    0.0;
  |]

let c = [| 0.0; 0.25; 0.375; 12.0 /. 13.0; 1.0; 0.5 |]

(* One embedded step: returns (5th-order next state, error estimate). *)
let attempt (sys : Types.system) stats t h (x : Vec.t) =
  let open Types in
  (* Nominal per-attempt charge, identical for accepted and rejected
     attempts: the tableau's 24 nonzero-coefficient axpys (the
     Contract.nonzero skips act on fixed constants, so the count is a
     constant of the method), seven stage copies, the embedded
     difference, and the caller's weighted RMS error norm.  Rhs
     evaluations charge themselves. *)
  let n = Array.length x in
  Obs.Cost.charge Obs.Cost.Flops_stepper (54 * n)
    ~read:(59 * n) ~written:(32 * n);
  let combine coeffs ks =
    let out = Vec.copy x in
    Array.iteri
      (fun i coef -> if Contract.nonzero coef then Vec.axpy ~alpha:(h *. coef) ks.(i) out)
      coeffs;
    out
  in
  let k = Array.make 6 x in
  k.(0) <- sys.rhs t x;
  k.(1) <- sys.rhs (t +. (c.(1) *. h)) (combine [| a2 |] k);
  k.(2) <- sys.rhs (t +. (c.(2) *. h)) (combine a3 k);
  k.(3) <- sys.rhs (t +. (c.(3) *. h)) (combine a4 k);
  k.(4) <- sys.rhs (t +. (c.(4) *. h)) (combine a5 k);
  k.(5) <- sys.rhs (t +. (c.(5) *. h)) (combine a6 k);
  stats.rhs_evals <- stats.rhs_evals + 6;
  let x5 = combine b5 k in
  let x4 = combine b4 k in
  (x5, Vec.sub x5 x4)

let default_rtol = 1e-7

let default_atol = 1e-10

let step_loc = Robust.Error.loc ~subsystem:"ode" ~operation:"Rkf45.integrate"

let integrate (sys : Types.system) ~t0 ~t1 ~(x0 : Vec.t) ?(rtol = default_rtol)
    ?(atol = default_atol) ?h0 ?hmax ?(max_steps = max_int) ?recorder ~samples
    () : Types.solution =
  if Array.length x0 <> sys.dim then invalid_arg "Rkf45.integrate: x0 dimension";
  Obs.Span.with_ ~name:"rkf45.integrate" @@ fun () ->
  let stats = Types.new_stats () in
  let span = t1 -. t0 in
  let hmax = Option.value hmax ~default:(span /. 10.0) in
  let h = ref (Option.value h0 ~default:(span /. 1000.0)) in
  let times = Types.sample_times ~t0 ~t1 ~samples in
  let states = Array.make samples x0 in
  states.(0) <- Vec.copy x0;
  let x = ref (Vec.copy x0) and t = ref t0 in
  let hmin = 1e-13 *. Float.max 1.0 (Float.abs span) in
  (* Records at most one event per contiguous run of non-finite
     attempts, so a single recovered NaN shows as one halve-step. *)
  let nonfinite_streak = ref false in
  (* Consecutive rejected attempts; a long streak marks a window where
     the controller is fighting the dynamics (stiffness, a kink). *)
  let reject_streak = ref 0 in
  let close_streak () =
    if !reject_streak >= 3 then
      Obs.Health.emit
        (Obs.Health.Ode_streak
           { context = "rkf45"; time = !t; length = !reject_streak });
    reject_streak := 0
  in
  let fail detail =
    let err =
      Robust.Error.Step_failure { loc = step_loc; time = !t; detail }
    in
    Robust.Report.record_opt recorder ~action:"exhausted" err;
    raise (Types.Step_failure (Printf.sprintf "Rkf45: %s at t=%.6g" detail !t))
  in
  (* Budget truncation: a spent compute budget stops the integration at
     the last completed sample and returns the prefix flagged [partial]
     rather than raising — anytime semantics for the transient solver. *)
  let filled = ref 1 and stopped = ref false in
  (try
     for i = 1 to samples - 1 do
       let target = times.(i) in
       while !t < target -. 1e-14 *. Float.abs target do
         (match Robust.Budget.tick_ode_step "ode.Rkf45.integrate" with
         | None -> ()
         | Some e ->
           Robust.Report.record_opt recorder ~action:"degrade:partial-series" e;
           stopped := true;
           raise Exit);
         if stats.steps + stats.rejected >= max_steps then
           fail (Printf.sprintf "step budget (%d) exhausted" max_steps);
      let step_h = Float.min !h (target -. !t) in
      let x5, err = attempt sys stats !t step_h !x in
      (* weighted RMS error norm *)
      let n = sys.dim in
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        let scale = atol +. (rtol *. Float.max (Float.abs !x.(j)) (Float.abs x5.(j))) in
        let e = err.(j) /. scale in
        acc := !acc +. (e *. e)
      done;
      let enorm = sqrt (!acc /. float_of_int n) in
      let finite = Vec.is_finite x5 && Float.is_finite enorm in
      if finite && (enorm <= 1.0 || step_h <= hmin) then begin
        nonfinite_streak := false;
        close_streak ();
        stats.steps <- stats.steps + 1;
        Obs.Metrics.incr Obs.Metrics.Ode_step;
        t := !t +. step_h;
        x := x5
      end
      else begin
        stats.rejected <- stats.rejected + 1;
        incr reject_streak;
        Obs.Metrics.incr Obs.Metrics.Ode_rejected
      end;
      if not finite then begin
        (* NaN/Inf guard: treat the attempt as rejected and halve the
           step — the error norm is meaningless, and the old factor
           update would propagate the NaN into [h] and stall forever. *)
        if not !nonfinite_streak then begin
          nonfinite_streak := true;
          Robust.Report.record_opt recorder ~action:"halve-step"
            (Robust.Error.Step_failure
               {
                 loc = step_loc;
                 time = !t;
                 detail = "non-finite step result";
               })
        end;
        if step_h <= hmin then fail "non-finite step result at minimal step";
        h := Float.max hmin (0.5 *. step_h)
      end
      else begin
        (* PI-ish step update with safety factor *)
        let factor =
          if Contract.is_zero enorm then 4.0
          else Float.min 4.0 (Float.max 0.1 (0.9 *. (enorm ** (-0.2))))
        in
        h := Float.min hmax (Float.max hmin (step_h *. factor))
      end
       done;
       states.(i) <- Vec.copy !x;
       filled := i + 1
     done
   with Exit -> ());
  close_streak ();
  if not !stopped then { Types.times; states; stats; partial = false }
  else
    {
      Types.times = Array.sub times 0 !filled;
      states = Array.sub states 0 !filled;
      stats;
      partial = true;
    }
