(* Tests for the deterministic cost model (lib/obs/cost.ml, DESIGN.md
   §15): tick/merge exactness of the per-domain accumulators under 4
   domains, bit-identical fig2/fig3 cost counters across repeated runs
   and across 1-vs-4-domain executions, per-span cost deltas summing to
   the process-wide delta, JSONL round-trips of cost.* members, the
   bench gate's exact (zero-tolerance) cost bands, and the
   bench-history append/load/render round-trip. *)

open La
module Par = Vmor.Par
module Cost = Obs.Cost

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let cost_list = Alcotest.(list (pair string int))

let named deltas = List.map (fun (c, n) -> (Cost.name c, n)) deltas

(* ---- tick/merge exactness under 4 domains ---- *)

let test_merge_exact_4domains () =
  let snap = Cost.snapshot () in
  let iters = 1_000 in
  Par.with_domains (Some 4) (fun () ->
      Par.tiles ~min_chunk:1 ~lo:0 ~hi:iters (fun ~lo ~hi ->
          for _ = lo to hi - 1 do
            Cost.charge Cost.Flops_axpy 3 ~read:2 ~written:1;
            Cost.charge Cost.Flops_matvec 5
          done));
  let deltas = Cost.since snap in
  let get c = Option.value ~default:0 (List.assoc_opt c deltas) in
  (* every lane's ticks must merge exactly: no lost updates, no
     double-counting, regardless of which domain ran which index *)
  check_int "flops_axpy merged exactly" (3 * iters) (get Cost.Flops_axpy);
  check_int "flops_matvec merged exactly" (5 * iters) (get Cost.Flops_matvec);
  check_int "bytes_read merged exactly" (8 * 2 * iters) (get Cost.Bytes_read);
  check_int "bytes_written merged exactly" (8 * iters) (get Cost.Bytes_written);
  check_int "total_flops sums the flops rows" (8 * iters)
    (Cost.total_flops deltas);
  check_int "total_bytes sums the byte rows" (8 * 3 * iters)
    (Cost.total_bytes deltas)

let test_disabled_is_noop () =
  let snap = Cost.snapshot () in
  Obs.Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Obs.Metrics.set_enabled true)
    (fun () -> Cost.charge Cost.Flops_lu 1_000 ~read:10 ~written:10);
  Alcotest.(check cost_list) "disabled charge leaves no trace" []
    (named (Cost.since snap))

(* ---- fig2/fig3 cost determinism: runs and domain counts ---- *)

let roms_of (e : Experiments.Common.t) =
  List.map
    (fun (r : Experiments.Common.rom_run) ->
      Printf.sprintf "%s %d %d %h" r.Experiments.Common.method_name
        r.Experiments.Common.order r.Experiments.Common.raw_moments
        r.Experiments.Common.max_rel_error)
    e.Experiments.Common.runs

(* cost, kernel counters and ROMs of one run *)
let run_of ~domains f =
  let snap = Cost.snapshot () and msnap = Obs.Metrics.snapshot () in
  let e = Par.with_domains domains f in
  ( named (Cost.since snap),
    List.map (fun (c, n) -> (Obs.Metrics.name c, n)) (Obs.Metrics.since msnap),
    roms_of e )

(* fig2/fig3 reduce NLTLs, whose G1 has a real spectrum, so their
   reductions run the real Schur path. *)
let test_fig_determinism () =
  Obs.Metrics.set_enabled true;
  List.iter
    (fun (name, build) ->
      let run domains () = run_of ~domains build in
      let ((cost, _, _) as first) = run (Some 1) () in
      check_bool (name ^ " produces cost counters") true (cost <> []);
      let same label (c, k, r) =
        let c0, k0, r0 = first in
        Alcotest.(check cost_list) (name ^ " cost identical " ^ label) c0 c;
        Alcotest.(check cost_list) (name ^ " counters identical " ^ label) k0 k;
        Alcotest.(check (list string)) (name ^ " ROMs identical " ^ label) r0 r
      in
      same "across repeated runs" (run (Some 1) ());
      same "at --domains 2" (run (Some 2) ());
      same "at --domains 4" (run (Some 4) ()))
    [
      ( "fig2",
        fun () -> Experiments.Paper.fig2 ~scale:0.25 ~samples:41 () );
      ( "fig3",
        fun () -> Experiments.Paper.fig3 ~scale:0.25 ~samples:41 () );
    ]

(* ---- per-span cost deltas ---- *)

let with_memory_sink f =
  let sink, captured = Obs.Sink.memory () in
  Obs.Sink.set sink;
  Fun.protect ~finally:(fun () -> Obs.Sink.set Obs.Sink.null) (fun () -> f ());
  captured ()

let test_span_cost_attribution () =
  let snap = Cost.snapshot () in
  let c =
    with_memory_sink (fun () ->
        Obs.Span.with_ ~name:"outer" (fun () ->
            Cost.charge Cost.Flops_axpy 10 ~read:4 ~written:2;
            Obs.Span.with_ ~name:"inner" (fun () ->
                Cost.charge Cost.Flops_matvec 200 ~read:50 ~written:5)))
  in
  let total = named (Cost.since snap) in
  let find name =
    List.find (fun (s : Obs.Sink.span_record) -> s.Obs.Sink.name = name) c.Obs.Sink.spans
  in
  let outer = find "outer" and inner = find "inner" in
  (* spans carry inclusive deltas: the root span's cost IS the
     process-wide delta of the region it covers *)
  Alcotest.(check cost_list) "outer span cost = process delta" total
    outer.Obs.Sink.cost;
  Alcotest.(check cost_list) "inner span sees only its own charges"
    [ ("flops_matvec", 200); ("bytes_read", 400); ("bytes_written", 40) ]
    inner.Obs.Sink.cost;
  (* a real reduction's root span must agree with the counters too
     (model built before the snapshot — its assembly charges are not
     part of the reduction span) *)
  let q =
    Circuit.Models.qldae (Circuit.Models.nltl ~stages:8 ~source:(`Voltage 1.0) ())
  in
  let snap2 = Cost.snapshot () in
  let c2 =
    with_memory_sink (fun () ->
        ignore
          (Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 4; k2 = 2; k3 = 1 } q))
  in
  let total2 = named (Cost.since snap2) in
  let root =
    List.find (fun (s : Obs.Sink.span_record) -> s.Obs.Sink.name = "atmor.reduce") c2.Obs.Sink.spans
  in
  Alcotest.(check cost_list) "atmor.reduce span cost = process delta" total2
    root.Obs.Sink.cost

(* Romdiag checks each matched order on one step of the model's own
   series, so under a memory sink its inclusive flops stay within the
   H3 moments it diagnoses. *)
let test_romdiag_within_h3_moments () =
  let q =
    Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:8 ~pa_stages:8 ())
  in
  let c =
    with_memory_sink (fun () ->
        ignore
          (Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 6; k2 = 3; k3 = 2 } q))
  in
  let flops name =
    let s =
      List.find (fun (s : Obs.Sink.span_record) -> s.Obs.Sink.name = name) c.Obs.Sink.spans
    in
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"flops_" k then acc + v else acc)
      0 s.Obs.Sink.cost
  in
  let diag = flops "romdiag.health" and h3 = flops "assoc.h3_moments" in
  if diag > h3 then
    Alcotest.failf "romdiag.health %d flops > assoc.h3_moments %d" diag h3

(* The full model's side of the check is the reduction's own engine and
   heads, so the only Schur factorization under romdiag.health is the
   q-dimensional ROM's, in the one ROM engine that steps its heads and
   serves the sweep. *)
let test_romdiag_factors_rom_only () =
  let q =
    Circuit.Models.qldae
      (Circuit.Models.rf_receiver ~lna_stages:20 ~pa_stages:20 ())
  in
  let order = ref 0 in
  let c =
    with_memory_sink (fun () ->
        order :=
          Mor.Atmor.order
            (Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 6; k2 = 3; k3 = 2 } q))
  in
  let order = !order in
  let diag =
    List.find
      (fun (s : Obs.Sink.span_record) -> s.Obs.Sink.name = "romdiag.health")
      c.Obs.Sink.spans
  in
  let schur =
    Option.value ~default:0 (List.assoc_opt "flops_schur" diag.Obs.Sink.cost)
  in
  let bound = 25 * order * order * order in
  if schur > bound then
    Alcotest.failf "romdiag.health flops_schur %d > 25q³ = %d (q = %d, n = %d)"
      schur bound order (Volterra.Qldae.dim q)

(* Tracing a paper figure turns on the Romdiag health check, which
   steps only the ROM; the figure's whole Obs.Cost flops stay within
   1.1x of the untraced run, and every ROM is the same to the bit. *)
let test_traced_figs_flops () =
  let roms = roms_of in
  let run f =
    let snap = Cost.snapshot () in
    let e = f () in
    (Cost.total_flops (Cost.since snap), roms e)
  in
  List.iter
    (fun (name, f) ->
      let plain, plain_roms = run f in
      let traced, traced_roms = ref 0, ref [] in
      ignore
        (with_memory_sink (fun () ->
             let fl, r = run f in
             traced := fl;
             traced_roms := r));
      Alcotest.(check (list string)) (name ^ " ROMs traced = untraced")
        plain_roms !traced_roms;
      let ratio = float_of_int !traced /. float_of_int plain in
      if ratio > 1.1 then
        Alcotest.failf "%s traced flops %d = %.4fx untraced %d > 1.1x" name
          !traced ratio plain)
    [
      ("fig2", fun () -> Experiments.Paper.fig2 ~scale:0.25 ~samples:41 ());
      ("fig3", fun () -> Experiments.Paper.fig3 ~scale:0.25 ~samples:41 ());
      ("fig4", fun () -> Experiments.Paper.fig4 ~scale:0.25 ());
      ("fig5", fun () -> Experiments.Paper.fig5 ~scale:0.25 ~samples:41 ());
    ]

(* The gramians own the Hurwitz check: Balanced.reduce factors G1 once
   for both gramians (the observability one runs on the transposed
   factors) and nothing more, and so does suggest_k1, whose Hankel
   singular values come from the same square-root factors. *)
let test_gramian_schur_count () =
  let q =
    Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:8 ~pa_stages:8 ())
  in
  let n = Volterra.Qldae.dim q in
  let schur_of f =
    let snap = Cost.snapshot () in
    ignore (Sys.opaque_identity (f ()));
    Option.value ~default:0 (List.assoc_opt Cost.Flops_schur (Cost.since snap))
  in
  check_int "n" 16 n;
  check_int "Balanced.reduce: one Schur factorization" (25 * n * n * n)
    (schur_of (fun () -> Mor.Balanced.reduce ~tol:1e-9 q));
  check_int "suggest_k1: one Schur factorization" (25 * n * n * n)
    (schur_of (fun () -> Mor.Autoselect.suggest_k1 ~tol:1e-5 q))

(* The nominal charges of the series kernels are pure functions of n
   and the arithmetic: the real kernels 2 flops per multiply-add and
   one 8-byte word per scalar, on the RF receiver (real spectrum) and on
   the varistor (complex pairs, 2x2 blocks) alike; complex data on the
   varistor's real T, a (re, im) tuple, is charged as two real solves:
   4 flops per multiply-add and 10 per division, on two words. *)
let test_path_charges () =
  let charge f =
    let snap = Cost.snapshot () in
    ignore (Sys.opaque_identity (f ()));
    let d = Cost.since snap in
    let get c = Option.value ~default:0 (List.assoc_opt c d) in
    (get Cost.Flops_trisolve, get Cost.Bytes_read, get Cost.Bytes_written)
  in
  let engine model =
    let q = Circuit.Models.qldae model in
    (Volterra.Qldae.dim q, Volterra.Assoc.ksolve (Volterra.Assoc.create q))
  in
  let sym3 n = n * (n + 1) * (n + 2) / 6 and madds3 n = (n - 1) * n * (n + 1) * (n + 2) / 4 in
  let check3 tag n (fl, rd, wr) ~madd ~div ~word =
    check_int (tag ^ ": sym3 flops") ((madd * madds3 n) + (div * sym3 n)) fl;
    check_int (tag ^ ": sym3 bytes read")
      (8 * ((word * n * n / 2) + (word * madds3 n))) rd;
    check_int (tag ^ ": sym3 bytes written") (8 * word * n * n * n) wr
  in
  (* k = 2: the top level's n(n-1)/2 block updates of n, then n leaves *)
  let check2 tag n (fl, rd, wr) ~madd ~div ~word =
    check_int (tag ^ ": k=2 flops")
      ((madd * n * n * (n - 1) / 2) + (n * ((madd * n * (n - 1) / 2) + (div * n))))
      fl;
    check_int (tag ^ ": k=2 bytes read")
      (8 * ((word * n * n / 2) + (word * n * n) + (n * ((word * n * n / 2) + (word * n)))))
      rd;
    check_int (tag ^ ": k=2 bytes written") (8 * ((word * n * n) + (n * word * n))) wr
  in
  let n, ks = engine (Circuit.Models.rf_receiver ~lna_stages:7 ~pa_stages:7 ()) in
  check_bool "RF receiver: triangular real T" true
    (let _, t = Schur.real_factors (Ksolve.schur ks) in
       List.for_all (fun i -> Contract.is_zero (Mat.get t (i + 1) i))
         (List.init (Mat.rows t - 1) Fun.id));
  let w3 = Vec.create (n * n * n) and w2 = Vec.create (n * n) in
  check3 "real" n ~madd:2 ~div:5 ~word:1
    (charge (fun () -> Ksolve.tri_solve_sym3_real ks ~sigma:0.5 w3));
  check2 "real" n ~madd:2 ~div:5 ~word:1
    (charge (fun () -> Ksolve.tri_solve_shifted_real ks ~k:2 ~sigma:0.5 w2));
  let n, ks = engine (Circuit.Models.varistor ~sections:6 ()) in
  let w3 = Vec.create (n * n * n) and w2 = Vec.create (n * n) in
  check3 "real, blocks" n ~madd:2 ~div:5 ~word:1
    (charge (fun () -> Ksolve.tri_solve_sym3_real ks ~sigma:0.5 w3));
  check2 "real, blocks" n ~madd:2 ~div:5 ~word:1
    (charge (fun () -> Ksolve.tri_solve_shifted_real ks ~k:2 ~sigma:0.5 w2));
  (* solve_shifted adds eight real order-2 mode transforms (Uᵀ, then U,
     on both modes of both parts): 2n³ tensor flops, 2n² words read and
     n² written each *)
  let sigma = { Complex.re = 0.5; im = 0.3 } in
  let tensor = ref 0 in
  let fl, rd, wr =
    charge (fun () ->
        let snap = Cost.snapshot () in
        let x = Ksolve.solve_shifted ks ~k:2 ~sigma (Cvec.create (n * n)) in
        tensor := Option.value ~default:0 (List.assoc_opt Cost.Flops_tensor (Cost.since snap));
        x)
  in
  check_int "complex: mode transform flops" (8 * 2 * n * n * n) !tensor;
  check2 "complex, blocks" n ~madd:4 ~div:10 ~word:2
    (fl, rd - (8 * 8 * 2 * n * n), wr - (8 * 8 * n * n))

(* An engine factors G1 once: every solve of a fixed-s0 AT reduction,
   the resolvent's included, runs on the one Schur factorization, and
   nothing is LU-factored (fig3's model at scale 0.25, n = 16, at its
   default expansion point s0 = 1, given so that picking it costs no
   LU either). *)
let test_engine_factors_once () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_current ~stages:8 ()) in
  let n = Volterra.Qldae.dim q in
  check_int "n" 16 n;
  let snap = Cost.snapshot () in
  ignore
    (Mor.Atmor.reduce ~s0:1.0 ~orders:{ Mor.Atmor.k1 = 6; k2 = 3; k3 = 2 } q);
  let d = Cost.since snap in
  let get c = Option.value ~default:0 (List.assoc_opt c d) in
  check_int "flops_lu" 0 (get Cost.Flops_lu);
  check_int "flops_schur: one factorization" (25 * n * n * n)
    (get Cost.Flops_schur)

(* The H2 series runs in the Schur basis. Per input pair and step,
   h2_moments charges one order-2 triangular solve, one g2_read
   (2(n·n(n+1)/2 + n(n-1)/2) tensor flops) and the resolvent's k = 1
   solve, whose two n x n transforms (2n² flops each) are the only mode
   transforms left; once per engine, the g2_sym build (per row of G2,
   n multiply-adds per structural entry of M + Mᵀ and n(n+1)/2 per
   index it touches). No order-2 mode transform (2n³ flops each, four
   per step before) is charged. RF receiver 6+6, n = 12, two inputs:
   three pairs. *)
let test_h2_schur_charges () =
  let q =
    Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:6 ~pa_stages:6 ())
  in
  let n = Volterra.Qldae.dim q and m = Volterra.Qldae.n_inputs q in
  let pairs = m * (m + 1) / 2 and np = n * (n + 1) / 2 and k = 3 in
  let g2 = Sptensor.entries q.Volterra.Qldae.g2 in
  let g2_form =
    List.fold_left
      (fun acc r ->
        let es = List.filter (fun (row, _, _) -> row = r) g2 in
        let positions =
          List.sort_uniq compare
            (List.concat_map (fun (_, i, _) -> [ (i.(0), i.(1)); (i.(1), i.(0)) ]) es)
        in
        let touched = List.sort_uniq compare (List.concat_map (fun (i, j) -> [ i; j ]) positions) in
        acc + (2 * ((List.length positions * n) + (List.length touched * np))))
      0 (List.init n Fun.id)
  in
  let eng = Volterra.Assoc.create ~s0:0.5 q in
  ignore (Volterra.Assoc.ksolve eng);
  let snap = Cost.snapshot () in
  ignore (Volterra.Assoc.h2_moments eng ~k);
  let d = Cost.since snap in
  let get c = Option.value ~default:0 (List.assoc_opt c d) in
  let g2_read = (2 * n * np) + (n * (n - 1)) in
  let resolvent_modes = 2 * (2 * n * n) in
  check_int "flops_tensor: g2_sym build + k (g2_read + resolvent transforms) per pair"
    (g2_form + (pairs * k * (g2_read + resolvent_modes)))
    (get Cost.Flops_tensor);
  let tri1 = (2 * n * (n - 1) / 2) + (5 * n) in
  let tri2 = (2 * n * n * (n - 1) / 2) + (n * tri1) in
  check_int "flops_trisolve: k (order-2 + resolvent) solves per pair"
    (pairs * k * (tri2 + tri1))
    (get Cost.Flops_trisolve)

(* One H2 series per input pair per engine: an AT reduction of fig2's
   model (NLTL with a voltage source, whose D1 term feeds H2 into H3;
   12 stages, the paper's orders (6,3,2) at fig2's s0 = 0.5) solves k1
   resolvents, 2 per H2 step (⊕², k = 1) and 3 per H3 step (⊕³, ⊕²,
   k = 1): its D1 term reads the H2 series the order-2 moments already
   stepped (k3 <= k2), where a chain of its own took 2·k3 more. *)
let test_h2_shared_with_d1 () =
  Obs.Metrics.set_enabled true;
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:12 ()) in
  check_bool "D1 present" true (Volterra.Qldae.has_d1 q);
  let snap = Obs.Metrics.snapshot () in
  ignore (Mor.Atmor.reduce ~s0:0.5 ~orders:{ Mor.Atmor.k1 = 6; k2 = 3; k3 = 2 } q);
  check_int "shifted solves" (6 + (2 * 3) + (3 * 2))
    (Option.value ~default:0
       (List.assoc_opt Obs.Metrics.Shifted_solve (Obs.Metrics.since snap)))

(* A span counts only its own domain's work.  Under two lanes the
   second point's moments run on a worker, in spans that are roots
   there, so the depth-0 spans of all lanes together account for the
   call's whole Obs.Cost delta, and tally the same at either lane
   count. *)
let test_depth0_cost_per_lane () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl_voltage ~stages:5 ()) in
  let run domains =
    let snap = Cost.snapshot () in
    let c =
      with_memory_sink (fun () ->
          Par.with_domains (Some domains) (fun () ->
              ignore
                (Mor.Atmor.reduce_multipoint ~points:[ 0.5; 2.0 ]
                   ~orders:{ Mor.Atmor.k1 = 3; k2 = 1; k3 = 0 } q)))
    in
    let delta = named (Cost.since snap) in
    let roots =
      List.map
        (fun k ->
          ( Cost.name k,
            List.fold_left
              (fun acc (s : Obs.Sink.span_record) ->
                if s.Obs.Sink.depth <> 0 then acc
                else
                  acc
                  + Option.value ~default:0
                      (List.assoc_opt (Cost.name k) s.Obs.Sink.cost))
              0 c.Obs.Sink.spans ))
        Cost.all
      |> List.filter (fun (_, n) -> n <> 0)
    in
    Alcotest.(check cost_list)
      (Printf.sprintf "depth-0 cost = call delta at %d lanes" domains)
      delta roots;
    roots
  in
  let two = run 2 in
  Alcotest.(check cost_list) "depth-0 cost same at 1 and 2 lanes" (run 1) two

(* ---- JSONL round-trip ---- *)

let test_jsonl_roundtrip () =
  let cost =
    [ ("flops_lu", 144_000); ("flops_trisolve", 7_200); ("bytes_read", 57_600) ]
  in
  let j =
    Obs.Sink.record_to_json
      {
        Obs.Sink.name = "lu.factor";
        depth = 2;
        start = 0.5;
        dur = 0.001;
        counters = [ ("lu_factor", 1) ];
        cost;
        prof = None;
      }
  in
  check_bool "cost members rendered flat" true (contains ~needle:"\"cost.flops_lu\":144000" j);
  (match Obs.Trace.parse_line j with
  | Obs.Trace.Span s ->
    Alcotest.(check cost_list) "cost survives the round-trip" cost
      s.Obs.Sink.cost;
    Alcotest.(check cost_list) "counters survive alongside cost"
      [ ("lu_factor", 1) ] s.Obs.Sink.counters
  | _ -> Alcotest.fail "expected a span record");
  (* spans without cost parse to an empty list (older traces) *)
  match
    Obs.Trace.parse_line
      {|{"type":"span","name":"old","depth":0,"start":0,"dur":1,"counters":{}}|}
  with
  | Obs.Trace.Span s ->
    Alcotest.(check cost_list) "absent cost parses empty" [] s.Obs.Sink.cost
  | _ -> Alcotest.fail "expected a span record"

(* ---- flops-rate zero-duration guard ---- *)

let test_flops_rate_guard () =
  check_bool "zero-duration span renders n/a" true
    (String.equal "n/a" (Obs.Trace.flops_rate ~flops:1000 ~seconds:0.0));
  check_bool "sub-picosecond renders n/a" true
    (String.equal "n/a" (Obs.Trace.flops_rate ~flops:1000 ~seconds:1e-13));
  check_bool "non-finite renders n/a" true
    (String.equal "n/a" (Obs.Trace.flops_rate ~flops:1000 ~seconds:Float.nan));
  check_bool "normal rate renders a number" true
    (String.equal "2e+06" (Obs.Trace.flops_rate ~flops:1000 ~seconds:5e-4))

(* ---- bench gate: exact cost bands ---- *)

let cost_bench ?cost () =
  let cost_member =
    match cost with
    | None -> ""
    | Some entries ->
      Printf.sprintf {|"cost": {%s},|}
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf {|"%s": %d|} k v) entries))
  in
  Printf.sprintf
    {|{
  "scale": 0.25,
  "experiments": [
    {
      "id": "fig_cost",
      "title": "cost gate test",
      "full_states": 40,
      "wall_seconds": 1.0,
      "counters": {"lu_factor": 100},
      %s
      "roms": []
    }
  ]
}|}
    cost_member

let gate ?(ignore_wall = true) old_s new_s =
  Gatecheck.check ~ignore_wall ~baseline:(Gatecheck.parse old_s)
    ~fresh:(Gatecheck.parse new_s) ()

let test_gate_cost_exact () =
  let entries = [ ("flops_lu", 144_000); ("bytes_read", 57_600) ] in
  let base = cost_bench ~cost:entries () in
  check_int "identical cost passes" 0 (List.length (gate base base));
  (* exact band: a single-flop drift is a violation *)
  let drift = cost_bench ~cost:[ ("flops_lu", 144_001); ("bytes_read", 57_600) ] () in
  (match gate base drift with
  | [ v ] ->
    check_bool "violation names the cost counter" true
      (contains ~needle:"flops_lu" v.Gatecheck.metric);
    check_bool "band is exact" true (String.equal "exact" v.Gatecheck.allowed)
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)));
  (* a counter vanishing (or appearing) fails via the union walk *)
  check_int "cost counter vanishing fails" 1
    (List.length (gate base (cost_bench ~cost:[ ("flops_lu", 144_000) ] ())));
  (* structural presence mirrors the gc block *)
  check_int "cost block disappearing fails" 1
    (List.length (gate base (cost_bench ())));
  check_int "cost block appearing fails (refresh baseline)" 1
    (List.length (gate (cost_bench ()) base));
  check_int "cost absent on both sides passes" 0
    (List.length (gate (cost_bench ()) (cost_bench ())));
  (* cost bands hold even when wall checks are skipped: --ignore-wall
     must not disable the deterministic perf pin *)
  check_int "exact band enforced under --ignore-wall" 1
    (List.length (gate ~ignore_wall:true base drift));
  check_int "exact band enforced with wall checks on" 1
    (List.length (gate ~ignore_wall:false base drift))

(* ---- bench history: append/load/render round-trip ---- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vmor_cost_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
  let cleanup () =
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let test_history_roundtrip () =
  with_temp_dir @@ fun dir ->
  let bench_src =
    {|{
  "scale": 0.25,
  "experiments": [
    {
      "id": "fig2",
      "title": "history test",
      "full_states": 40,
      "wall_seconds": 0.5,
      "counters": {"lu_factor": 10},
      "cost": {"flops_lu": 1000, "flops_matvec": 500, "bytes_read": 800},
      "roms": [{"method": "at", "order": 8, "raw_moments": 12,
                "reduction_seconds": 0.1, "max_rel_error": 0.00125}]
    }
  ]
}|}
  in
  let src = Filename.concat dir "bench_src.json" in
  let oc = open_out src in
  output_string oc bench_src;
  close_out oc;
  let p7 = Benchhistory.append ~pr:7 ~src ~dir in
  let p9 = Benchhistory.append ~pr:9 ~src ~dir in
  check_bool "snapshot named BENCH_9.json" true
    (String.equal (Filename.basename p9) "BENCH_9.json");
  check_bool "snapshot written" true (Sys.file_exists p7);
  let series = Benchhistory.load_series ~dir in
  check_int "both snapshots load" 2 (List.length series);
  (match series with
  | [ a; b ] ->
    check_int "sorted by pr" 7 a.Benchhistory.pr;
    check_int "sorted by pr (second)" 9 b.Benchhistory.pr;
    (match Obs.Json.(to_arr (member_exn "experiments" a.Benchhistory.bench)) with
    | [ e ] ->
      let cost c = List.map (fun (k, v) -> (k, Obs.Json.to_int v)) (Obs.Json.to_obj c) in
      check_bool "embedded bench round-trips through the gate parser" true
        (Option.map cost (Obs.Json.member "cost" e)
        = Some
            [ ("flops_lu", 1000); ("flops_matvec", 500); ("bytes_read", 800) ])
    | _ -> Alcotest.fail "expected one experiment")
  | _ -> Alcotest.fail "expected two entries");
  let table = Benchhistory.render_table series in
  check_bool "table names the experiment" true (contains ~needle:"== fig2 ==" table);
  check_bool "table sums flops" true (contains ~needle:"1500" table);
  check_bool "table shows orders" true (contains ~needle:"8" table);
  let csv = Benchhistory.render_csv series in
  check_bool "csv has the header" true
    (contains ~needle:"experiment,pr,wall_seconds,flops,flops_per_sec" csv);
  check_bool "csv has one row per pr" true
    (contains ~needle:"fig2,7," csv && contains ~needle:"fig2,9," csv);
  (* a malformed source must be rejected before it poisons the series *)
  let badsrc = Filename.concat dir "bad.json" in
  let oc = open_out badsrc in
  output_string oc "{\"not\": \"a bench\"}";
  close_out oc;
  check_bool "append validates through the gate parser" true
    (match Benchhistory.append ~pr:10 ~src:badsrc ~dir with
    | (_ : string) -> false
    | exception Benchhistory.Bad_history _ -> true)

let suite =
  [
    ( "cost",
      [
        Alcotest.test_case "4-domain tick/merge exactness" `Quick
          test_merge_exact_4domains;
        Alcotest.test_case "disabled charges are no-ops" `Quick
          test_disabled_is_noop;
        Alcotest.test_case "fig2/fig3 cost determinism (runs, domains)" `Slow
          test_fig_determinism;
        Alcotest.test_case "per-span cost deltas sum to process delta" `Quick
          test_span_cost_attribution;
        Alcotest.test_case "cost.* JSONL round-trip" `Quick
          test_jsonl_roundtrip;
        Alcotest.test_case "flops-rate zero-duration guard" `Quick
          test_flops_rate_guard;
        Alcotest.test_case "gate: exact cost bands" `Quick
          test_gate_cost_exact;
        Alcotest.test_case "bench-history round-trip" `Quick
          test_history_roundtrip;
        Alcotest.test_case "romdiag flops within the H3 moments" `Quick
          test_romdiag_within_h3_moments;
        Alcotest.test_case "romdiag factors only the ROM" `Quick
          test_romdiag_factors_rom_only;
        Alcotest.test_case "depth-0 spans count each lane once" `Quick
          test_depth0_cost_per_lane;
        Alcotest.test_case "traced fig2-5 flops within 1.1x untraced" `Slow
          test_traced_figs_flops;
        Alcotest.test_case "gramians factor G1 once each" `Quick
          test_gramian_schur_count;
        Alcotest.test_case "H2 series charges in the Schur basis" `Quick
          test_h2_schur_charges;
        Alcotest.test_case "the D1 term shares the H2 series" `Quick
          test_h2_shared_with_d1;
        Alcotest.test_case "an engine factors G1 once" `Quick
          test_engine_factors_once;
        Alcotest.test_case "real and complex nominal charges" `Quick
          test_path_charges;
      ] );
  ]
