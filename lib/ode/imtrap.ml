(* Implicit trapezoidal rule (A-stable, 2nd order) with a modified
   Newton iteration — the stiff-circuit workhorse. The factored
   iteration matrix I - h/2 J is kept across steps (chord Newton) and
   only rebuilt when the step size changes or the iteration stalls on
   the stale Jacobian, the standard circuit-simulator compromise: for
   linear(ized) systems the per-step O(n^3) factorization collapses to
   one, and mildly nonlinear systems refactor only when convergence
   actually degrades.

   Factor reuse rule: the step size "changes" only when it differs from
   the cached factor's by more than 1e-9 relative. A step shortened to
   land on a sample instant differs from h by rounding alone (about
   1e-14 relative on a uniform grid), and refactoring for it would cost
   one Jacobian and one O(n^3) factorization. The residual always uses
   the exact step, so the chord iteration converges to the same
   trapezoid solution; the slightly stale iteration matrix only costs
   convergence rate. *)

open La

let default_newton_tol = 1e-10

let default_max_newton = 12

let integrate (sys : Types.system) ~t0 ~t1 ~(x0 : Vec.t) ~h
    ?(newton_tol = default_newton_tol) ?(max_newton = default_max_newton)
    ~samples () : Types.solution =
  if Array.length x0 <> sys.dim then invalid_arg "Imtrap.integrate: x0 dim";
  if h <= 0.0 then invalid_arg "Imtrap.integrate: h must be positive";
  Obs.Span.with_ ~name:"imtrap.integrate" @@ fun () ->
  let jac =
    match sys.Types.jac with
    | Some j -> j
    | None -> invalid_arg "Imtrap.integrate: system has no Jacobian"
  in
  let stats = Types.new_stats () in
  let times = Types.sample_times ~t0 ~t1 ~samples in
  let states = Array.make samples x0 in
  states.(0) <- Vec.copy x0;
  let x = ref (Vec.copy x0) and t = ref t0 in
  let n = sys.Types.dim in
  let id = Mat.identity n in
  (* Factored I - h/2 J(t, x), keyed by the step size it was built
     for; invalidated on stall or near-budget convergence. *)
  let cache : (float * Lu.t) option ref = ref None in
  let refactor tn xn step_h =
    let j = jac tn xn in
    stats.Types.jac_evals <- stats.Types.jac_evals + 1;
    (* iteration-matrix assembly (Mat.sub + Mat.scale are un-leafed);
       the factorization below charges itself *)
    Obs.Cost.charge Obs.Cost.Flops_stepper (2 * n * n)
      ~read:(2 * n * n) ~written:(2 * n * n);
    let iter_mat = Mat.sub id (Mat.scale (0.5 *. step_h) j) in
    let lu = Lu.factor iter_mat in
    cache := Some (step_h, lu);
    lu
  in
  (* Budget truncation: a spent compute budget ends the integration at
     the last completed sample; the prefix is returned flagged
     [partial]. The Newton loop below is left unpolled — it is bounded
     by [max_newton], so at most one step's worth of work follows a
     poll. *)
  let filled = ref 1 and stopped = ref false in
  (try
     for i = 1 to samples - 1 do
       let target = times.(i) in
       while !t < target -. 1e-14 *. Float.abs target do
         if Robust.Budget.tick_ode_step "ode.Imtrap.integrate" <> None then begin
           stopped := true;
           raise Exit
         end;
         let step_h = Float.min h (target -. !t) in
      let tn = !t and tn1 = !t +. step_h in
      let fn = sys.Types.rhs tn !x in
      stats.Types.rhs_evals <- stats.Types.rhs_evals + 1;
      (* Modified Newton on F(z) = z - x_n - h/2 (f_n + f(t_{n+1}, z)),
         predictor: forward Euler. *)
      let newton lu =
        let z = ref (Vec.add !x (Vec.scale step_h fn)) in
        let converged = ref false in
        let iters = ref 0 in
        (while (not !converged) && !iters < max_newton do
          incr iters;
          stats.Types.newton_iters <- stats.Types.newton_iters + 1;
          Obs.Metrics.incr Obs.Metrics.Newton_iter;
          (* nominal per-iteration charge: residual assembly, the
             correction axpy and both convergence norms; the rhs and
             the LU solve charge themselves *)
          Obs.Cost.charge Obs.Cost.Flops_stepper (11 * n)
            ~read:(14 * n) ~written:(8 * n);
          let fz = sys.Types.rhs tn1 !z in
          stats.Types.rhs_evals <- stats.Types.rhs_evals + 1;
          (* residual F(z) *)
          let res = Vec.sub !z !x in
          Vec.axpy ~alpha:(-0.5 *. step_h) fn res;
          Vec.axpy ~alpha:(-0.5 *. step_h) fz res;
          let delta = Lu.solve lu res in
          Vec.axpy ~alpha:(-1.0) delta !z;
          if Vec.norm2 delta <= newton_tol *. (1.0 +. Vec.norm2 !z) then
            converged := true
        done)
        [@vmor.unbudgeted
          "bounded by max_newton; at most one step's Newton solve trails \
           the per-step budget poll"];
        (!z, !converged, !iters)
      in
      let lu, fresh =
        match !cache with
        | Some (h_c, lu) when Contract.close_rel ~rtol:1e-9 h_c step_h -> (lu, false)
        | _ -> (refactor tn !x step_h, true)
      in
      let z, converged, iters =
        match newton lu with
        | (_, false, _) when not fresh ->
          (* the stale Jacobian stalled the chord iteration: rebuild at
             the current state and give Newton one fresh chance *)
          newton (refactor tn !x step_h)
        | r -> r
      in
      (* Nearly exhausting the iteration budget on a reused factor
         means the Jacobian has drifted: refresh on the next step. *)
      if (not fresh) && iters > max_newton / 2 then cache := None;
      if not converged then
        raise
          (Types.Step_failure
             (Printf.sprintf "Imtrap: Newton stalled at t=%.6g (h=%.3g)" !t
                step_h));
      if not (Vec.is_finite z) then
        raise (Types.Step_failure
                 (Printf.sprintf "Imtrap: non-finite state at t=%.6g" !t));
      stats.Types.steps <- stats.Types.steps + 1;
      Obs.Metrics.incr Obs.Metrics.Ode_step;
      x := z;
      t := tn1
       done;
       states.(i) <- Vec.copy !x;
       filled := i + 1
     done
   with Exit -> ());
  if not !stopped then { Types.times; states; stats; partial = false }
  else
    {
      Types.times = Array.sub times 0 !filled;
      states = Array.sub states 0 !filled;
      stats;
      partial = true;
    }
