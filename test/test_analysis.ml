(* Tests for the analysis extensions: Cholesky, symmetric eigensolver,
   balanced truncation, TPWL baseline, and the Volterra
   distortion/steady-state engine (validated against long transients). *)

open La

let rng = Random.State.make [| 31337 |]

let check_small name value tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (got %.3e, tol %.1e)" name value tol)
    true (value <= tol)

let check_float name expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %.6g, got %.6g)" name expected actual)
    true
    (Float.abs (expected -. actual) <= tol)

let random_stable n =
  let a = Mat.random ~rng n n in
  Mat.sub (Mat.scale 0.4 a) (Mat.scale 1.5 (Mat.identity n))

(* ---- Cholesky ---- *)

let test_chol_factor () =
  let m = Mat.random ~rng 6 6 in
  let a = Mat.add (Mat.mul m (Mat.transpose m)) (Mat.identity 6) in
  let l = Chol.factor a in
  check_small "L L^T = A"
    (Mat.norm_fro (Mat.sub (Mat.mul l (Mat.transpose l)) a))
    1e-9;
  (* strictly upper part of L is zero *)
  let upper = ref 0.0 in
  for i = 0 to 5 do
    for j = i + 1 to 5 do
      upper := !upper +. Float.abs (Mat.get l i j)
    done
  done;
  check_small "L lower triangular" !upper 1e-15

let test_chol_indefinite () =
  let a = Mat.of_list [ [ 1.0; 2.0 ]; [ 2.0; 1.0 ] ] in
  Alcotest.(check bool) "indefinite rejected" true
    (try
       ignore (Chol.factor a);
       false
     with Chol.Not_positive_definite _ -> true)

let test_chol_solve () =
  let m = Mat.random ~rng 5 5 in
  let a = Mat.add (Mat.mul m (Mat.transpose m)) (Mat.identity 5) in
  let x = Mat.random_vec ~rng 5 in
  let b = Mat.mul_vec a x in
  let l = Chol.factor a in
  check_small "chol solve" (Vec.dist2 x (Chol.solve l b)) 1e-9

let test_chol_semidefinite () =
  (* rank-3 PSD matrix of size 6 *)
  let g = Mat.random ~rng 6 3 in
  let a = Mat.mul g (Mat.transpose g) in
  let r = Chol.factor_semidefinite a in
  Alcotest.(check int) "detected rank" 3 (Mat.cols r);
  check_small "R R^T = A"
    (Mat.norm_fro (Mat.sub (Mat.mul r (Mat.transpose r)) a))
    1e-9

(* ---- symmetric eigensolver ---- *)

let test_symeig_reconstruct () =
  let m = Mat.random ~rng 7 7 in
  let a = Mat.scale 0.5 (Mat.add m (Mat.transpose m)) in
  let e = Symeig.decompose a in
  check_small "V D V^T = A" (Mat.norm_fro (Mat.sub (Symeig.reconstruct e) a)) 1e-10;
  let v = e.Symeig.vectors in
  check_small "V orthogonal"
    (Mat.norm_fro (Mat.sub (Mat.mul (Mat.transpose v) v) (Mat.identity 7)))
    1e-10

let test_symeig_known () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1 *)
  let a = Mat.of_list [ [ 2.0; 1.0 ]; [ 1.0; 2.0 ] ] in
  let e = Symeig.decompose_sorted a in
  check_float "largest" 3.0 e.Symeig.values.(0) 1e-12;
  check_float "smallest" 1.0 e.Symeig.values.(1) 1e-12

let test_symeig_sorted () =
  let m = Mat.random ~rng 8 8 in
  let a = Mat.scale 0.5 (Mat.add m (Mat.transpose m)) in
  let e = Symeig.decompose_sorted a in
  let ok = ref true in
  for i = 1 to 7 do
    if e.Symeig.values.(i) > e.Symeig.values.(i - 1) +. 1e-12 then ok := false
  done;
  Alcotest.(check bool) "descending" true !ok

(* ---- balanced truncation ---- *)

let test_balanced_linear_accuracy () =
  (* linear QLDAE: balanced ROM transfer function must track H1 *)
  let n = 12 in
  let g1 = random_stable n in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ j -> if j < 2 then 1.0 else 0.0) in
  let q = Volterra.Qldae.make ~g1 ~b ~c () in
  let r = Mor.Balanced.reduce ~order:6 q in
  Alcotest.(check int) "requested order" 6 r.Mor.Balanced.order;
  (* bi-orthogonality *)
  check_small "W^T V = I"
    (Mat.norm_fro
       (Mat.sub
          (Mat.mul (Mat.transpose r.Mor.Balanced.w) r.Mor.Balanced.v)
          (Mat.identity 6)))
    1e-8;
  let tf = Volterra.Transfer.create q in
  let tr = Volterra.Transfer.create r.Mor.Balanced.rom in
  (* the classical twice-the-tail HSV error bound (checked at spot
     frequencies, with slack for the frequency sampling) *)
  let tail =
    Array.to_list r.Mor.Balanced.hsv
    |> List.filteri (fun i _ -> i >= 6)
    |> List.fold_left ( +. ) 0.0
  in
  List.iter
    (fun w ->
      let s = { Complex.re = 0.0; im = w } in
      let hf = Volterra.Transfer.output_h1 tf ~input:0 s in
      let hr = Volterra.Transfer.output_h1 tr ~input:0 s in
      check_small
        (Printf.sprintf "H1 gap at w=%.1f within HSV bound" w)
        (Complex.norm (Complex.sub hf hr))
        (2.0 *. tail *. 1.5 +. 1e-12))
    [ 0.0; 0.5; 1.0; 3.0 ]

(* Square-root HSVs against an independent route: sqrt of the
   eigenvalues of P·Q off a Schur factorization. That route loses the
   small values to noise, so only those above 1e-6·σ₁ are compared. *)
let test_balanced_hsv_match_lyapunov () =
  let n = 9 in
  let g1 = random_stable n in
  let b = Mat.random ~rng n 1 in
  let c = Mat.random ~rng 1 n in
  let q = Volterra.Qldae.make ~g1 ~b ~c () in
  let r = Mor.Balanced.reduce ~tol:1e-12 q in
  let reference =
    let pq =
      Mat.mul (Lyapunov.controllability ~a:g1 ~b) (Lyapunov.observability ~a:g1 ~c)
    in
    let svs =
      Array.map
        (fun (z : Complex.t) -> sqrt (Float.max 0.0 z.re))
        (Schur.eigenvalues (Schur.decompose pq))
    in
    Array.sort (fun x y -> compare y x) svs;
    svs
  in
  let svs = Lyapunov.hankel_singular_values ~a:g1 ~b ~c in
  let leading = Array.to_list reference |> List.filter (fun s -> s > 1e-6 *. reference.(0)) in
  Alcotest.(check bool)
    (Printf.sprintf "at least the %d leading values" (List.length leading))
    true
    (Array.length svs >= List.length leading
    && Array.length r.Mor.Balanced.hsv >= List.length leading);
  List.iteri
    (fun i s ->
      check_small
        (Printf.sprintf "HSV %d agreement" i)
        (Float.abs (s -. svs.(i)) /. (1.0 +. s))
        1e-6;
      check_small
        (Printf.sprintf "balanced HSV %d agreement" i)
        (Float.abs (s -. r.Mor.Balanced.hsv.(i)) /. (1.0 +. s))
        1e-6)
    leading

(* One Hankel-singular-value routine: Lyapunov's HSVs are Balanced's,
   bit for bit, on the 40-state RF receiver whose trailing values sit
   far below 1e-8 σ₁. *)
let test_hsv_one_routine () =
  let q =
    Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:20 ~pa_stages:20 ())
  in
  let hsv =
    Lyapunov.hankel_singular_values ~a:q.Volterra.Qldae.g1 ~b:q.Volterra.Qldae.b
      ~c:q.Volterra.Qldae.c
  in
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  Alcotest.(check (list int64)) "element for element"
    (bits (Mor.Balanced.reduce q).Mor.Balanced.hsv)
    (bits hsv)

let test_balanced_nonlinear_rom () =
  (* balanced projection of a full QLDAE stays accurate in transients *)
  let q =
    Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:8 ~pa_stages:8 ())
  in
  let r = Mor.Balanced.reduce ~tol:1e-9 q in
  Alcotest.(check bool)
    (Printf.sprintf "order %d < n %d" r.Mor.Balanced.order (Volterra.Qldae.dim q))
    true
    (r.Mor.Balanced.order < Volterra.Qldae.dim q);
  let input = Waves.Source.vectorize [ Waves.Source.sine ~freq:0.2 0.5; Waves.Source.zero ] in
  let sf = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1:15.0 ~samples:46 in
  let yf = Volterra.Qldae.output q sf in
  let sr =
    Volterra.Qldae.simulate r.Mor.Balanced.rom ~input ~t0:0.0 ~t1:15.0 ~samples:46
  in
  let yr = Volterra.Qldae.output r.Mor.Balanced.rom sr in
  check_small "balanced nonlinear ROM"
    (Waves.Metrics.max_relative_error ~reference:yf ~approx:yr)
    0.02

let test_balanced_rejects_unstable () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl ~stages:5 ~source:(`Voltage 1.0) ()) in
  Alcotest.(check bool) "singular G1 rejected" true
    (try
       ignore (Mor.Balanced.reduce q);
       false
     with Robust.Error.Error (Robust.Error.Non_hurwitz _) -> true)

(* ---- TPWL ---- *)

let tpwl_train_input =
  Waves.Source.vectorize [ Waves.Source.damped_sine ~freq:0.125 ~decay:0.08 0.8 ]

let test_tpwl_training_accuracy () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl ~stages:10 ~source:(`Voltage 1.0) ()) in
  let tp =
    Mor.Tpwl.train ~delta:0.01 q ~input:tpwl_train_input ~t0:0.0 ~t1:25.0
      ~samples:300
  in
  Alcotest.(check bool) "multiple pieces" true (Mor.Tpwl.n_pieces tp > 1);
  Alcotest.(check bool) "reduced" true (Mor.Tpwl.order tp < Volterra.Qldae.dim q);
  let sf = Volterra.Qldae.simulate q ~input:tpwl_train_input ~t0:0.0 ~t1:25.0 ~samples:76 in
  let yf = Volterra.Qldae.output q sf in
  let st = Mor.Tpwl.simulate tp ~input:tpwl_train_input ~t0:0.0 ~t1:25.0 ~samples:76 in
  let yt = Mor.Tpwl.output tp st in
  (* the blended-linear approximation carries a few percent of
     irreducible error even on its own training trajectory *)
  check_small "TPWL on its training input"
    (Waves.Metrics.max_relative_error ~reference:yf ~approx:yt)
    0.06

let test_tpwl_training_dependence () =
  (* the paper's introduction: TPWL accuracy depends on the training
     input. Drive with a different (larger, slower) excitation and
     compare against the associated-transform ROM, which has no
     training trajectory at all. *)
  let q = Circuit.Models.qldae (Circuit.Models.nltl ~stages:10 ~source:(`Voltage 1.0) ()) in
  let tp =
    Mor.Tpwl.train ~delta:0.01 q ~input:tpwl_train_input ~t0:0.0 ~t1:25.0
      ~samples:300
  in
  let at = Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 6; k2 = 3; k3 = 0 } q in
  let test_input =
    Waves.Source.vectorize [ Waves.Source.pulse_train ~period:12.0 ~flat:5.0 1.6 ]
  in
  let sf = Volterra.Qldae.simulate q ~input:test_input ~t0:0.0 ~t1:25.0 ~samples:76 in
  let yf = Volterra.Qldae.output q sf in
  let e_tpwl =
    try
      let st = Mor.Tpwl.simulate tp ~input:test_input ~t0:0.0 ~t1:25.0 ~samples:76 in
      Waves.Metrics.max_relative_error ~reference:yf ~approx:(Mor.Tpwl.output tp st)
    with Ode.Types.Step_failure _ -> infinity
  in
  let sa =
    Volterra.Qldae.simulate at.Mor.Atmor.rom ~input:test_input ~t0:0.0 ~t1:25.0
      ~samples:76
  in
  let e_at =
    Waves.Metrics.max_relative_error ~reference:yf
      ~approx:(Volterra.Qldae.output at.Mor.Atmor.rom sa)
  in
  Alcotest.(check bool)
    (Printf.sprintf "AT generalizes better off-training (AT %.4f vs TPWL %.4f)"
       e_at e_tpwl)
    true
    (e_at < e_tpwl)

(* ---- distortion / steady state ---- *)

(* discrete Fourier amplitude of a sampled tail at frequency f *)
let dft_amplitude (ts : float array) (ys : float array) f =
  let n = Array.length ts in
  let re = ref 0.0 and im = ref 0.0 in
  for i = 0 to n - 1 do
    let ph = 2.0 *. Float.pi *. f *. ts.(i) in
    re := !re +. (ys.(i) *. cos ph);
    im := !im -. (ys.(i) *. sin ph)
  done;
  if f < 1e-12 then Float.abs (!re /. float_of_int n)
  else 2.0 *. Float.hypot !re !im /. float_of_int n

let weakly_nonlinear_system () =
  let n = 5 in
  let g1 = random_stable n in
  let g2 =
    Sptensor.of_dense ~arity:2 ~n_in:n (Mat.scale 0.2 (Mat.random ~rng n (n * n)))
  in
  let b = Mat.init n 1 (fun i _ -> 1.0 /. float_of_int (i + 1)) in
  let c = Mat.init 1 n (fun _ _ -> 1.0) in
  Volterra.Qldae.make ~g2 ~g1 ~b ~c ()

let test_distortion_linear_system_clean () =
  let n = 4 in
  let g1 = random_stable n in
  let b = Mat.random ~rng n 1 in
  let c = Mat.random ~rng 1 n in
  let q = Volterra.Qldae.make ~g1 ~b ~c () in
  let r = Volterra.Distortion.harmonics q ~freq:0.2 ~amp:0.5 in
  check_small "HD2 = 0" r.Volterra.Distortion.hd2 1e-12;
  check_small "HD3 = 0" r.Volterra.Distortion.hd3 1e-12;
  check_small "no DC shift" r.Volterra.Distortion.dc_shift 1e-12;
  (* fundamental = amp * |c H1(j2πf) b| *)
  let tf = Volterra.Transfer.create q in
  let h =
    Complex.norm
      (Volterra.Transfer.output_h1 tf ~input:0
         { Complex.re = 0.0; im = 2.0 *. Float.pi *. 0.2 })
  in
  check_float "fundamental amplitude" (0.5 *. h)
    r.Volterra.Distortion.fundamental 1e-10

let test_distortion_vs_transient () =
  (* the definitive check: steady-state spectrum from the Volterra
     engine vs DFT of a long transient's tail *)
  let q = weakly_nonlinear_system () in
  let f0 = 0.25 and amp = 0.15 in
  let comps = Volterra.Distortion.analyze q ~tones:[ Volterra.Distortion.tone ~freq:f0 amp ] in
  (* transient: simulate 15 periods, analyze the last 5 *)
  let period = 1.0 /. f0 in
  let t1 = 15.0 *. period in
  let input t = Vec.of_list [ amp *. cos (2.0 *. Float.pi *. f0 *. t) ] in
  let samples = 1501 in
  let sol =
    Volterra.Qldae.simulate q
      ~solver:(Volterra.Qldae.Rkf45 { rtol = 1e-10; atol = 1e-13 })
      ~input ~t0:0.0 ~t1 ~samples
  in
  let y = Volterra.Qldae.output q sol in
  let tail_from = 10.0 *. period in
  let ts = ref [] and ys = ref [] in
  Array.iteri
    (fun i t ->
      if t >= tail_from -. 1e-9 && t < t1 -. 1e-9 then begin
        ts := t :: !ts;
        ys := y.(i) :: !ys
      end)
    sol.Ode.Types.times;
  let ts = Array.of_list (List.rev !ts) and ys = Array.of_list (List.rev !ys) in
  List.iter
    (fun (label, f) ->
      let predicted = Volterra.Distortion.amplitude_at comps f in
      let measured = dft_amplitude ts ys f in
      check_small
        (Printf.sprintf "%s: predicted %.3e vs transient %.3e" label predicted
           measured)
        (Float.abs (predicted -. measured))
        (0.05 *. Float.max predicted 1e-6 +. 1e-6))
    [ ("fundamental", f0); ("2nd harmonic", 2.0 *. f0); ("DC", 0.0) ]

let test_distortion_scaling_law () =
  (* |X(2f)| must scale like amp² (i.e. HD2 linear in amp) *)
  let q = weakly_nonlinear_system () in
  let r1 = Volterra.Distortion.harmonics q ~freq:0.2 ~amp:0.1 in
  let r2 = Volterra.Distortion.harmonics q ~freq:0.2 ~amp:0.2 in
  let ratio = r2.Volterra.Distortion.hd2 /. r1.Volterra.Distortion.hd2 in
  (* the fundamental itself carries a small third-order (compression)
     term, so the ratio is 2 only to leading order *)
  check_float "HD2 doubles with amplitude" 2.0 ratio 1e-3

let test_intermodulation_products () =
  let q = weakly_nonlinear_system () in
  let r = Volterra.Distortion.intermodulation q ~f1:0.3 ~f2:0.21 ~amp:0.1 in
  Alcotest.(check bool) "IM2 present" true (r.Volterra.Distortion.im2 > 1e-6);
  (* IM2 scales with amp, IM3 with amp²: at small amplitude IM3 << IM2
     for a quadratic-only system (IM3 arises via cascaded H2) *)
  Alcotest.(check bool) "IM3 smaller than IM2" true
    (r.Volterra.Distortion.im3 < r.Volterra.Distortion.im2)

let test_distortion_rom_agreement () =
  (* the AT-NMOR ROM must reproduce the full model's distortion *)
  let q = Circuit.Models.qldae (Circuit.Models.rf_receiver ~lna_stages:10 ~pa_stages:10 ()) in
  let r = Mor.Atmor.reduce ~orders:{ Mor.Atmor.k1 = 6; k2 = 3; k3 = 0 } q in
  let hf = Volterra.Distortion.harmonics q ~freq:0.15 ~amp:0.5 in
  let hr = Volterra.Distortion.harmonics r.Mor.Atmor.rom ~freq:0.15 ~amp:0.5 in
  check_small "fundamental"
    (Float.abs (hf.Volterra.Distortion.fundamental -. hr.Volterra.Distortion.fundamental)
    /. hf.Volterra.Distortion.fundamental)
    1e-3;
  check_small "HD2"
    (Float.abs (hf.Volterra.Distortion.hd2 -. hr.Volterra.Distortion.hd2)
    /. Float.max hf.Volterra.Distortion.hd2 1e-12)
    0.05

let suite =
  let tc = Alcotest.test_case in
  [
    ( "analysis.chol",
      [
        tc "factor PSD" `Quick test_chol_factor;
        tc "indefinite rejected" `Quick test_chol_indefinite;
        tc "solve" `Quick test_chol_solve;
        tc "semidefinite rank" `Quick test_chol_semidefinite;
      ] );
    ( "analysis.symeig",
      [
        tc "reconstruction" `Quick test_symeig_reconstruct;
        tc "known eigenvalues" `Quick test_symeig_known;
        tc "sorted" `Quick test_symeig_sorted;
      ] );
    ( "analysis.balanced",
      [
        tc "linear accuracy + HSV bound" `Quick test_balanced_linear_accuracy;
        tc "HSVs match Lyapunov" `Quick test_balanced_hsv_match_lyapunov;
        tc "one HSV routine (RF 20+20)" `Quick test_hsv_one_routine;
        tc "nonlinear ROM" `Slow test_balanced_nonlinear_rom;
        tc "unstable rejected" `Quick test_balanced_rejects_unstable;
      ] );
    ( "analysis.tpwl",
      [
        tc "training-input accuracy" `Slow test_tpwl_training_accuracy;
        tc "training dependence vs AT" `Slow test_tpwl_training_dependence;
      ] );
    ( "analysis.distortion",
      [
        tc "linear system is clean" `Quick test_distortion_linear_system_clean;
        tc "spectrum vs long transient" `Slow test_distortion_vs_transient;
        tc "HD2 amplitude scaling" `Quick test_distortion_scaling_law;
        tc "intermodulation products" `Quick test_intermodulation_products;
        tc "ROM distortion agreement" `Slow test_distortion_rom_agreement;
      ] );
  ]

(* ---- POD baseline ---- *)

let test_pod_training_accuracy () =
  let q = Circuit.Models.qldae (Circuit.Models.nltl ~stages:10 ~source:(`Voltage 1.0) ()) in
  let r = Mor.Pod.reduce q ~input:tpwl_train_input ~t0:0.0 ~t1:25.0 ~samples:200 in
  Alcotest.(check bool)
    (Printf.sprintf "POD reduced (order %d < %d)" (Mor.Atmor.order r)
       (Volterra.Qldae.dim q))
    true
    (Mor.Atmor.order r < Volterra.Qldae.dim q);
  let sf = Volterra.Qldae.simulate q ~input:tpwl_train_input ~t0:0.0 ~t1:25.0 ~samples:76 in
  let yf = Volterra.Qldae.output q sf in
  let sr =
    Volterra.Qldae.simulate r.Mor.Atmor.rom ~input:tpwl_train_input ~t0:0.0
      ~t1:25.0 ~samples:76
  in
  let yr = Volterra.Qldae.output r.Mor.Atmor.rom sr in
  check_small "POD on training input"
    (Waves.Metrics.max_relative_error ~reference:yf ~approx:yr)
    0.02

let test_pod_basis_energy () =
  (* snapshots in a 2D subspace give a rank-2 basis *)
  let u = Vec.of_list [ 1.0; 0.0; 0.0; 0.0 ] in
  let v = Vec.of_list [ 0.0; 1.0; 0.0; 0.0 ] in
  let snaps =
    List.init 20 (fun i ->
        let a = sin (float_of_int i) and b = cos (float_of_int i *. 0.7) in
        Vec.add (Vec.scale a u) (Vec.scale b v))
  in
  let basis = Mor.Pod.pod_basis snaps in
  Alcotest.(check int) "rank 2" 2 (La.Mat.cols basis)

let suite =
  suite
  @ [
      ( "analysis.pod",
        [
          Alcotest.test_case "training-input accuracy" `Slow test_pod_training_accuracy;
          Alcotest.test_case "basis rank from energy" `Quick test_pod_basis_energy;
        ] );
    ]
