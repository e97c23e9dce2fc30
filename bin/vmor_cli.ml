(* vmor: command-line front end for the associated-transform NMOR
   library — run the paper's experiments, reduce the bundled circuit
   models at chosen orders, simulate and compare transients, and read
   back where a run spent its time.

   Core subcommands (reduce | simulate | compare) share flag names
   with the [Vmor.Options] record; --trace/--metrics wire the
   observability sinks, and [report] reads a written trace. *)

open Cmdliner

(* Exit codes (documented in README): 0 success, 2 usage error,
   3 numerical failure, 4 result produced but degraded/recovered
   (including budget-truncated best-effort results), 5 compute budget
   exhausted before anything was produced. Library failures surface as
   one-line messages, never raw backtraces. *)
exception Usage_error of string

let exit_usage = 2
let exit_numerical = 3
let exit_degraded = 4
let exit_budget = 5

let guarded f () =
  try f () with
  | Usage_error msg ->
    Printf.eprintf "vmor: %s\n" msg;
    exit exit_usage
  | Invalid_argument msg ->
    Printf.eprintf "vmor: %s\n" msg;
    exit exit_usage
  | Robust.Error.Error e when Robust.Budget.is_budget_error e ->
    Printf.eprintf "vmor: compute budget exhausted: %s\n"
      (Robust.Error.to_string e);
    exit exit_budget
  | Robust.Error.Error e ->
    Printf.eprintf "vmor: numerical failure: %s\n" (Robust.Error.to_string e);
    exit exit_numerical
  | La.Ksolve.Near_singular d ->
    Printf.eprintf
      "vmor: numerical failure: shifted solve near-singular (pole distance \
       %.3g)\n"
      d;
    exit exit_numerical
  | La.Lu.Singular col ->
    Printf.eprintf "vmor: numerical failure: singular matrix (pivot %d)\n" col;
    exit exit_numerical
  | Ode.Types.Step_failure msg ->
    Printf.eprintf "vmor: numerical failure: %s\n" msg;
    exit exit_numerical

(* Degraded-but-produced: report what the recovery layer did, then exit
   with the dedicated code so scripts can tell clean from recovered. *)
let finish_with_report (d : Robust.Report.t) =
  if not (Robust.Report.is_empty d) then begin
    Printf.printf "recovery events:\n%s\n" (Robust.Report.to_string d);
    exit exit_degraded
  end

let setup_logs level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

(* ---- observability flags (shared by the core subcommands) ---- *)

let trace_arg =
  let doc = "Write a JSONL span/event trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE.jsonl" ~doc)

let metrics_arg =
  let doc = "Print the kernel-metrics table to stderr when the run ends." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let setup_obs ~trace ~metrics =
  (match trace with
  | Some path -> Obs.Sink.set (Obs.Sink.jsonl_file path)
  | None -> ());
  if metrics then
    at_exit (fun () -> prerr_string (Obs.Metrics.render_table ()))

(* ---- compute-budget flags (shared by the core subcommands) ---- *)

let deadline_arg =
  let doc =
    "Wall-clock compute budget in seconds. When it expires mid-run the \
     kernels degrade to a best-effort result — a smaller ROM or a \
     truncated transient, exit code 4 — or stop with exit code 5 when \
     nothing was produced."
  in
  let env = Cmd.Env.info "VMOR_DEADLINE" ~doc:"See option $(b,--deadline)." in
  (* an empty value means unset, as for VMOR_TRACE and VMOR_DOMAINS *)
  let seconds =
    let parse = function
      | "" -> Ok None
      | s -> Result.map Option.some (Arg.conv_parser Arg.float s)
    in
    Arg.conv (parse, Fmt.(option float))
  in
  Arg.(value & opt seconds None & info [ "deadline" ] ~docv:"SEC" ~env ~doc)

let max_steps_arg =
  let doc = "Budget: cap on ODE integration steps (accepted + rejected)." in
  Arg.(value & opt (some int) None & info [ "max-steps" ] ~docv:"N" ~doc)

(* ---- parallelism (shared by the reduction-running subcommands) ---- *)

let domains_arg =
  let doc =
    "Worker-domain lane count for the parallel kernels (Vmor.Par). \
     Unset or 1 = serial; up to 64. Results are bit-identical to the \
     serial run at any lane count."
  in
  let env = Cmd.Env.info "VMOR_DOMAINS" ~doc:"See option $(b,--domains)." in
  Arg.(
    value & opt (some string) None & info [ "domains" ] ~docv:"N" ~env ~doc)

(* Parsed by hand so a malformed --domains/VMOR_DOMAINS exits 2 like
   every other flag error, instead of cmdliner's generic 124. An empty
   value means unset. *)
let domains_of = function
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= 64 -> Some n
    | _ ->
      raise
        (Usage_error
           (Printf.sprintf
              "--domains/VMOR_DOMAINS %s: expected an integer in [1, 64]" s)))

(* No budget flags at all = no budget installed; unbudgeted runs stay
   bit-identical to pre-budget behavior. *)
let budget_of ~deadline ~max_steps : Robust.Budget.t option =
  match (deadline, max_steps) with
  | None, None -> None
  | _ -> Some (Robust.Budget.make ?deadline ?max_ode_steps:max_steps ())

(* ---- experiment reproduction commands ---- *)

let scale_arg =
  let doc = "Model scale factor (1.0 = the paper's sizes)." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc)

let csv_arg =
  let doc = "Directory for CSV series dumps (created if missing)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let plots_arg =
  let doc = "Disable terminal plots." in
  Arg.(value & flag & info [ "no-plots" ] ~doc)

let run_experiment ~csv ~no_plots (e : Experiments.Common.t) =
  Experiments.Common.report ~plots:(not no_plots) Fmt.stdout e;
  match csv with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Experiments.Common.to_csv ~dir e in
    Printf.printf "(series written to %s)\n" path

let experiment_cmd name title builder =
  let run scale csv no_plots () =
    setup_logs (Some Logs.Warning);
    run_experiment ~csv ~no_plots (builder ~scale ())
  in
  Cmd.v
    (Cmd.info name ~doc:title)
    Term.(const (fun scale csv no_plots -> guarded (run scale csv no_plots))
          $ scale_arg $ csv_arg $ plots_arg $ const ())

let table1_cmd =
  let run scale () =
    setup_logs (Some Logs.Warning);
    Experiments.Common.table1_rows Fmt.stdout (Experiments.Paper.table1 ~scale ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1 (runtime comparison).")
    Term.(const (fun scale -> guarded (run scale)) $ scale_arg $ const ())

(* ---- shared model / reduction flags (mirroring Vmor.Options) ---- *)

let model_arg =
  let doc = "Model: nltl-v | nltl-i | rf | varistor." in
  Arg.(value & opt string "nltl-v" & info [ "model" ] ~docv:"M" ~doc)

let orders_arg =
  let doc = "Moment orders k1,k2,k3." in
  Arg.(value & opt (t3 ~sep:',' int int int) (6, 3, 2) & info [ "orders" ] ~docv:"K1,K2,K3" ~doc)

let method_arg =
  let doc =
    "Reduction method: at (associated transform) | norm | multipoint (with \
     --points)."
  in
  Arg.(value & opt string "at" & info [ "method" ] ~docv:"METHOD" ~doc)

let points_arg =
  let doc = "Expansion points for --method multipoint (comma-separated)." in
  Arg.(value & opt (list float) [] & info [ "points" ] ~docv:"S0,S1,..." ~doc)

let s0_arg =
  let doc = "Expansion point (default: automatic)." in
  Arg.(value & opt (some float) None & info [ "s0" ] ~docv:"S0" ~doc)

let tol_arg =
  let doc = "Deflation tolerance of the basis QR." in
  Arg.(value & opt float 1e-8 & info [ "tol" ] ~docv:"TOL" ~doc)

let t1_arg =
  let doc = "Transient end time." in
  Arg.(value & opt float 30.0 & info [ "t1" ] ~docv:"T1" ~doc)

let samples_arg =
  let doc = "Transient sample count." in
  Arg.(value & opt int 201 & info [ "samples" ] ~docv:"N" ~doc)

let freq_arg =
  let doc = "Input tone frequency." in
  Arg.(value & opt float 0.125 & info [ "freq" ] ~docv:"F" ~doc)

let amp_arg =
  let doc = "Input tone amplitude." in
  Arg.(value & opt float 0.8 & info [ "amp" ] ~docv:"A" ~doc)

let build_model ~scale = function
  | "nltl-v" ->
    Circuit.Models.qldae
      (Circuit.Models.nltl_voltage
         ~stages:(max 4 (int_of_float (50.0 *. scale)))
         ())
  | "nltl-i" ->
    Circuit.Models.qldae
      (Circuit.Models.nltl_current
         ~stages:(max 4 (int_of_float (35.0 *. scale)))
         ())
  | "rf" ->
    Circuit.Models.qldae
      (Circuit.Models.rf_receiver
         ~lna_stages:(max 4 (int_of_float (86.0 *. scale)))
         ~pa_stages:(max 4 (int_of_float (87.0 *. scale)))
         ())
  | "varistor" ->
    Circuit.Models.qldae
      (Circuit.Models.varistor
         ~sections:(max 4 (int_of_float (97.0 *. scale)))
         ())
  | m ->
    raise
      (Usage_error
         (Printf.sprintf "unknown model %S (expected nltl-v | nltl-i | rf | varistor)" m))

let build_options ~method_ ~points ?s0 ~tol ?domains () =
  let method_ =
    match method_ with
    | "at" -> Vmor.Associated_transform
    | "norm" -> Vmor.Norm_baseline
    | "multipoint" ->
      if points = [] then
        raise (Usage_error "--method multipoint requires --points")
      else Vmor.Multipoint points
    | m ->
      raise
        (Usage_error
           (Printf.sprintf "unknown method %S (expected at | norm | multipoint)" m))
  in
  Vmor.Options.make ?s0 ~tol ~method_ ?domains ()

(* A default excitation for simulate/compare: one damped sine on every
   input. *)
let default_input q ~freq ~amp =
  let m = Volterra.Qldae.n_inputs q in
  Waves.Source.vectorize
    (List.init m (fun _ -> Waves.Source.damped_sine ~freq ~decay:0.08 amp))

(* ---- core subcommands ---- *)

let reduce_cmd =
  let run model orders method_ points s0 tol scale trace metrics deadline
      max_steps domains () =
    setup_logs (Some Logs.Warning);
    setup_obs ~trace ~metrics;
    Robust.Budget.with_budget (budget_of ~deadline ~max_steps)
    @@ fun () ->
    let q = build_model ~scale model in
    let k1, k2, k3 = orders in
    let options =
      build_options ~method_ ~points ?s0 ~tol ?domains:(domains_of domains) ()
    in
    let r = Vmor.reduce ~options ~orders:{ k1; k2; k3 } q in
    Printf.printf
      "model %s: %d states -> %d (raw moment vectors %d, s0 = %g, %.2fs)\n"
      model (Volterra.Qldae.dim q) (Vmor.order r) r.Mor.Atmor.raw_moments
      r.Mor.Atmor.s0 r.Mor.Atmor.reduction_seconds;
    finish_with_report (Vmor.degradation r)
  in
  Cmd.v
    (Cmd.info "reduce" ~doc:"Reduce a bundled circuit model and report sizes.")
    Term.(
      const
        (fun model orders method_ points s0 tol scale trace metrics deadline
             max_steps domains ->
          guarded
            (run model orders method_ points s0 tol scale trace metrics
               deadline max_steps domains))
      $ model_arg $ orders_arg $ method_arg $ points_arg $ s0_arg $ tol_arg
      $ scale_arg $ trace_arg $ metrics_arg $ deadline_arg $ max_steps_arg
      $ domains_arg $ const ())

let simulate_cmd =
  let run model scale t1 samples freq amp trace metrics deadline max_steps () =
    setup_logs (Some Logs.Warning);
    setup_obs ~trace ~metrics;
    Robust.Budget.with_budget (budget_of ~deadline ~max_steps)
    @@ fun () ->
    let q = build_model ~scale model in
    let input = default_input q ~freq ~amp in
    let times, y = Vmor.transient ~samples q ~input ~t1 in
    Printf.printf
      "model %s: %d states, %d samples to t=%g\n  output peak %.6g, final %.6g\n"
      model (Volterra.Qldae.dim q) (Array.length times) t1
      (Waves.Metrics.peak y)
      y.(Array.length y - 1);
    if Array.length times < samples then begin
      Printf.printf
        "partial: compute budget expired at t=%g (%d of %d samples)\n"
        times.(Array.length times - 1)
        (Array.length times) samples;
      exit exit_degraded
    end
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Transient-simulate a bundled circuit model (first output).")
    Term.(
      const
        (fun model scale t1 samples freq amp trace metrics deadline max_steps ->
          guarded
            (run model scale t1 samples freq amp trace metrics deadline
               max_steps))
      $ model_arg $ scale_arg $ t1_arg $ samples_arg $ freq_arg $ amp_arg
      $ trace_arg $ metrics_arg $ deadline_arg $ max_steps_arg $ const ())

let compare_cmd =
  let run model orders method_ points s0 tol scale t1 samples freq amp trace
      metrics deadline max_steps domains () =
    setup_logs (Some Logs.Warning);
    setup_obs ~trace ~metrics;
    Robust.Budget.with_budget (budget_of ~deadline ~max_steps)
    @@ fun () ->
    let q = build_model ~scale model in
    let k1, k2, k3 = orders in
    let options =
      build_options ~method_ ~points ?s0 ~tol ?domains:(domains_of domains) ()
    in
    let r = Vmor.reduce ~options ~orders:{ k1; k2; k3 } q in
    let input = default_input q ~freq ~amp in
    let c = Vmor.compare_transient ~samples q r ~input ~t1 in
    Printf.printf
      "model %s: %d states -> %d\n\
      \  max rel error %.6f (worst case over %d output channel%s)\n"
      model (Volterra.Qldae.dim q) (Vmor.order r) c.Vmor.max_rel_error
      (Array.length c.Vmor.full_outputs)
      (if Array.length c.Vmor.full_outputs = 1 then "" else "s");
    let truncated = Array.length c.Vmor.times < samples in
    if truncated then
      Printf.printf
        "partial: compute budget truncated the transient (%d of %d samples)\n"
        (Array.length c.Vmor.times) samples;
    finish_with_report (Vmor.degradation r);
    if truncated then exit exit_degraded
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Reduce a bundled model and compare full vs ROM transients (all \
          output channels).")
    Term.(
      const
        (fun model orders method_ points s0 tol scale t1 samples freq amp trace
             metrics deadline max_steps domains ->
          guarded
            (run model orders method_ points s0 tol scale t1 samples freq amp
               trace metrics deadline max_steps domains))
      $ model_arg $ orders_arg $ method_arg $ points_arg $ s0_arg $ tol_arg
      $ scale_arg $ t1_arg $ samples_arg $ freq_arg $ amp_arg $ trace_arg
      $ metrics_arg $ deadline_arg $ max_steps_arg
      $ domains_arg $ const ())

let load_trace path =
  try Obs.Trace.load path with
  | Obs.Trace.Malformed msg -> raise (Usage_error (path ^ ": " ^ msg))
  | Sys_error msg -> raise (Usage_error msg)

let report_cmd =
  let trace_file_arg =
    let doc = "JSONL trace file (written by --trace or VMOR_TRACE)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TRACE.jsonl" ~doc)
  in
  let diff_arg =
    let doc = "Compare against $(docv) (treated as the old trace)." in
    Arg.(value & opt (some string) None & info [ "diff" ] ~docv:"OLD.jsonl" ~doc)
  in
  let depth_arg =
    let doc = "Limit the time tree to spans at depth <= $(docv)." in
    Arg.(value & opt (some int) None & info [ "max-depth" ] ~docv:"N" ~doc)
  in
  let top_arg =
    let doc = "Rows in the hot-kernels (exclusive time) table." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let chrome_arg =
    let doc =
      "Also write the trace as a Chrome trace-event JSON file (load in \
       Perfetto or chrome://tracing)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"OUT.json" ~doc)
  in
  let folded_arg =
    let doc =
      "Also write the trace as folded stacks (feed to flamegraph.pl or \
       speedscope); counts are exclusive microseconds."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"OUT.txt" ~doc)
  in
  let run trace_file diff max_depth top chrome folded () =
    setup_logs (Some Logs.Warning);
    let t = load_trace trace_file in
    (match diff with
    | Some old_file ->
      (* --diff OLD NEW reads naturally left-to-right, so the
         positional argument is the new trace. *)
      print_string (Obs.Trace.render_diff (load_trace old_file) t)
    | None ->
      print_string (Obs.Trace.render_tree ?max_depth t);
      print_newline ();
      print_string (Obs.Trace.render_hot ~top t);
      print_newline ();
      print_string (Obs.Trace.render_health t));
    let write_file path contents =
      Out_channel.with_open_bin path (fun oc -> output_string oc contents)
    in
    Option.iter
      (fun out ->
        write_file out (Obs.Trace.chrome_string t);
        (* Re-read what was written and validate it structurally, so a
           rendering bug fails the command instead of Perfetto. *)
        let contents = In_channel.with_open_bin out In_channel.input_all in
        (try Obs.Trace.validate_chrome (Obs.Json.parse contents) with
        | Obs.Json.Parse_error msg ->
          raise (Usage_error (out ^ ": emitted invalid JSON: " ^ msg))
        | Obs.Trace.Malformed msg ->
          raise (Usage_error (out ^ ": emitted invalid chrome trace: " ^ msg)));
        Printf.printf "chrome trace -> %s\n" out)
      chrome;
    Option.iter
      (fun out ->
        write_file out (Obs.Trace.to_folded t);
        Printf.printf "folded stacks -> %s\n" out)
      folded
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyze a JSONL trace: where-the-time-went tree, hot-kernels \
          table (exclusive time, allocation and flops), and numerical-health \
          summary, or a diff of two traces; optionally export it as Chrome \
          trace events and folded stacks.")
    Term.(
      const (fun trace_file diff max_depth top chrome folded ->
          guarded (run trace_file diff max_depth top chrome folded))
      $ trace_file_arg $ diff_arg $ depth_arg $ top_arg $ chrome_arg
      $ folded_arg $ const ())

let bench_history_cmd =
  let dir_arg =
    let doc =
      "Directory holding BENCH_<pr>.json snapshots (the repo root by \
       convention)."
    in
    Arg.(value & opt string "." & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let csv_arg =
    let doc = "Emit machine-readable CSV instead of the table." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let run dir csv () =
    setup_logs (Some Logs.Warning);
    match Benchhistory.load_series ~dir with
    | series ->
      print_string
        (if csv then Benchhistory.render_csv series
         else Benchhistory.render_table series)
    | exception Benchhistory.Bad_history m -> raise (Usage_error m)
    | exception Sys_error m -> raise (Usage_error m)
  in
  Cmd.v
    (Cmd.info "bench-history"
       ~doc:
         "Render the per-PR bench trajectory (wall time, nominal flops, \
          flops/s, ROM orders, accuracy) from committed BENCH_<pr>.json \
          snapshots.")
    Term.(const (fun dir csv -> guarded (run dir csv)) $ dir_arg $ csv_arg
          $ const ())

let autoselect_cmd =
  let run model scale trace metrics deadline max_steps domains () =
    setup_logs (Some Logs.Warning);
    setup_obs ~trace ~metrics;
    Vmor.Par.with_domains (domains_of domains) @@ fun () ->
    Robust.Budget.with_budget (budget_of ~deadline ~max_steps)
    @@ fun () ->
    let q = build_model ~scale model in
    (match Mor.Autoselect.suggest_k1 ~tol:1e-5 q with
    | Some k -> Printf.printf "Hankel SVs suggest linear order k1 = %d\n" k
    | None -> Printf.printf "G1 not Hurwitz: no Hankel suggestion\n");
    let sel = Mor.Autoselect.reduce q in
    Printf.printf
      "auto-selected moment orders: k1 = %d, k2 = %d, k3 = %d -> ROM order %d \
       (%.2fs)\n"
      sel.Mor.Autoselect.chosen.Mor.Atmor.k1
      sel.Mor.Autoselect.chosen.Mor.Atmor.k2
      sel.Mor.Autoselect.chosen.Mor.Atmor.k3
      (Mor.Atmor.order sel.Mor.Autoselect.result)
      sel.Mor.Autoselect.result.Mor.Atmor.reduction_seconds;
    finish_with_report sel.Mor.Autoselect.result.Mor.Atmor.degradation
  in
  Cmd.v
    (Cmd.info "autoselect"
       ~doc:"Automatically select moment orders for a bundled model (§4).")
    Term.(
      const
        (fun model scale trace metrics deadline max_steps domains ->
          guarded
            (run model scale trace metrics deadline max_steps domains))
      $ model_arg $ scale_arg $ trace_arg $ metrics_arg $ deadline_arg
      $ max_steps_arg $ domains_arg $ const ())

let distortion_cmd =
  let dfreq_arg =
    Arg.(value & opt float 0.15 & info [ "freq" ] ~docv:"F" ~doc:"Tone frequency.")
  in
  let damp_arg =
    Arg.(value & opt float 0.5 & info [ "amp" ] ~docv:"A" ~doc:"Tone amplitude.")
  in
  let run model scale freq amp () =
    setup_logs (Some Logs.Warning);
    let q = build_model ~scale model in
    let r = Volterra.Distortion.harmonics q ~freq ~amp in
    Printf.printf
      "model %s @ f=%g amp=%g:\n  fundamental %.6g\n  HD2 %.6g\n  HD3 %.6g\n  \
       DC shift %.6g\n"
      model freq amp r.Volterra.Distortion.fundamental
      r.Volterra.Distortion.hd2 r.Volterra.Distortion.hd3
      r.Volterra.Distortion.dc_shift
  in
  Cmd.v
    (Cmd.info "distortion"
       ~doc:"Single-tone harmonic distortion of a bundled model.")
    Term.(const (fun model scale freq amp -> guarded (run model scale freq amp))
          $ model_arg $ scale_arg $ dfreq_arg $ damp_arg $ const ())

let all_cmd =
  let run scale csv no_plots () =
    setup_logs (Some Logs.Warning);
    List.iter
      (fun b -> run_experiment ~csv ~no_plots (b ~scale ()))
      [
        (fun ~scale () -> Experiments.Paper.fig2 ~scale ());
        (fun ~scale () -> Experiments.Paper.fig3 ~scale ());
        (fun ~scale () -> Experiments.Paper.fig4 ~scale ());
        (fun ~scale () -> Experiments.Paper.fig5 ~scale ());
      ];
    Experiments.Common.table1_rows Fmt.stdout (Experiments.Paper.table1 ~scale ())
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every experiment (figures 2-5 and Table 1).")
    Term.(const (fun scale csv no_plots -> guarded (run scale csv no_plots))
          $ scale_arg $ csv_arg $ plots_arg $ const ())

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  (* Keep this table in sync with the README exit-code table; a test
     diffs the two. *)
  let exits =
    [
      Cmd.Exit.info ~doc:"on success (clean run)." 0;
      Cmd.Exit.info
        ~doc:"on usage errors (bad flag values, unknown model or method)."
        exit_usage;
      Cmd.Exit.info
        ~doc:
          "on numerical failure (singular system, integrator step failure, \
           exhausted recovery ladder)."
        exit_numerical;
      Cmd.Exit.info
        ~doc:
          "when a result was produced but degraded or recovered — dropped \
           moment orders, fallback rungs, or a compute budget truncating to \
           a best-effort ROM / partial transient."
        exit_degraded;
      Cmd.Exit.info
        ~doc:
          "when a compute budget ($(b,--deadline), $(b,--max-steps)) was \
           exhausted before any result was produced."
        exit_budget;
    ]
    @ List.filter (fun i -> Cmd.Exit.info_code i <> 0) Cmd.Exit.defaults
  in
  let info =
    Cmd.info "vmor" ~version:"1.0.0" ~exits
      ~doc:
        "Associated-transform nonlinear model order reduction (DAC 2012 \
         reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            experiment_cmd "fig2" "Reproduce Fig. 2 (NLTL, voltage source)."
              (fun ~scale () -> Experiments.Paper.fig2 ~scale ());
            experiment_cmd "fig3" "Reproduce Fig. 3 (NLTL, current source)."
              (fun ~scale () -> Experiments.Paper.fig3 ~scale ());
            experiment_cmd "fig4" "Reproduce Fig. 4 (MISO RF receiver)."
              (fun ~scale () -> Experiments.Paper.fig4 ~scale ());
            experiment_cmd "fig5" "Reproduce Fig. 5 (varistor surge)."
              (fun ~scale () -> Experiments.Paper.fig5 ~scale ());
            table1_cmd;
            reduce_cmd;
            simulate_cmd;
            compare_cmd;
            report_cmd;
            bench_history_cmd;
            autoselect_cmd;
            distortion_cmd;
            all_cmd;
          ]))
