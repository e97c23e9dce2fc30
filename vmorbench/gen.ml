(* Seeded input generator.  Everything the benchmark feeds the program
   is made here from the run's seed: circuit variants of the paper's
   four model families and input waveforms.  The program under test
   only ever sees the finished QLDAEs and waveform closures.

   Every draw comes from a [Random.State] keyed by (seed, stream), so
   op [i] of a run is the same on every host and in every process, and
   does not depend on how many ops came before it. *)

open Vmor

let rng ~seed ~stream = Random.State.make [| 0x766d6f72; seed; stream |]
let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

(* x scaled by a factor drawn uniformly from [1 - rel, 1 + rel] *)
let jitter rng rel x = x *. (1.0 +. (rel *. (Random.State.float rng 2.0 -. 1.0)))

type family = Nltl_v | Nltl_i | Rf | Varistor

let families = [| Nltl_v; Nltl_i; Rf; Varistor |]

let family_name = function
  | Nltl_v -> "nltl-v"
  | Nltl_i -> "nltl-i"
  | Rf -> "rf"
  | Varistor -> "varistor"

(* ---- circuit variants ----

   The netlists follow [Circuit.Models] (same topology and nominal
   values), but every capacitor and resistor value is drawn within
   +-[rel] of nominal, so each variant has its own G1 and no two ops
   share a Schur factorization.  [rel = 0] gives the paper's circuit. *)

let nltl rng ~rel ~stages ~source =
  let open Circuit.Netlist in
  let linear_front, ground_diode =
    match source with `Voltage -> (0, true) | `Current -> (1, false)
  in
  let first_ladder = linear_front + 1 in
  let n_nodes = linear_front + stages in
  let alpha = jitter rng (rel /. 4.0) 40.0 in
  let els = ref [] in
  let add e = els := e :: !els in
  for node = 1 to n_nodes do
    add (Capacitor { n1 = node; n2 = 0; c = jitter rng rel 1.0 })
  done;
  add (Resistor { n1 = 1; n2 = 0; r = jitter rng rel 1.0 });
  for node = 1 to n_nodes - 1 do
    add (Resistor { n1 = node; n2 = node + 1; r = jitter rng rel 1.0 })
  done;
  if ground_diode then add (Diode { n1 = first_ladder; n2 = 0; alpha; scale = 1.0 });
  for node = first_ladder to n_nodes - 1 do
    add (Diode { n1 = node; n2 = node + 1; alpha; scale = 1.0 })
  done;
  (match source with
  | `Voltage -> List.iter add (thevenin_source ~node:1 ~input:0 ~r:1.0)
  | `Current -> add (Current_source { n1 = 1; n2 = 0; input = 0; gain = 1.0 }));
  make ~n_nodes ~n_inputs:1 ~output_node:1 (List.rev !els)

let rf rng ~rel ~lna ~pa =
  let open Circuit.Netlist in
  let n_nodes = lna + pa in
  let pa_first = lna + 1 in
  let stage = 2.0 /. float_of_int n_nodes in
  let spread node =
    let x = Float.rem (0.6180339887 *. float_of_int node) 1.0 in
    0.4 +. (1.6 *. x)
  in
  let els = ref [] in
  let add e = els := e :: !els in
  for node = 1 to n_nodes do
    add (Capacitor { n1 = node; n2 = 0; c = jitter rng rel (stage *. spread node) });
    let ratio = if node < pa_first then 0.5 else 1.0 in
    let g1 = jitter rng rel (stage *. spread (node + 7)) in
    add (Poly_conductor { n1 = node; n2 = 0; g1; g2 = ratio *. g1; g3 = 0.0 })
  done;
  for node = 1 to n_nodes - 1 do
    add
      (Resistor
         { n1 = node; n2 = node + 1; r = jitter rng rel (stage *. spread (node + 3)) })
  done;
  add (Current_source { n1 = 1; n2 = 0; input = 0; gain = 1.0 });
  add (Current_source { n1 = pa_first; n2 = 0; input = 1; gain = 0.6 });
  make ~n_nodes ~n_inputs:2 ~output_node:n_nodes (List.rev !els)

let varistor rng ~rel ~sections =
  let open Circuit.Netlist in
  let n_nodes = 3 + sections in
  let out = 3 in
  let g1 = 0.08 and g3 = 2.4 in
  (* built back to front, like [add] above, and reversed at the end *)
  let els =
    ref
      [
        Resistor { n1 = out; n2 = 0; r = 10.0 };
        Poly_conductor { n1 = out; n2 = 0; g1; g2 = 0.0; g3 };
        Poly_conductor { n1 = 2; n2 = 0; g1 = g1 /. 2.0; g2 = 0.0; g3 = g3 /. 2.0 };
        Capacitor { n1 = 3; n2 = 0; c = 1.0 };
        Resistor { n1 = 2; n2 = 3; r = 1.5 };
        Inductor { n1 = 2; n2 = 3; l = 0.3 };
        Capacitor { n1 = 2; n2 = 0; c = 2.0 };
        Resistor { n1 = 1; n2 = 2; r = 1.5 };
        Inductor { n1 = 1; n2 = 2; l = 0.3 };
        Capacitor { n1 = 1; n2 = 0; c = 1.0 };
        Resistor { n1 = 1; n2 = 0; r = 2.0 };
        Current_source { n1 = 1; n2 = 0; input = 0; gain = 1.0 };
      ]
  in
  for s = 0 to sections - 1 do
    let prev = if s = 0 then out else 3 + s in
    let node = 4 + s in
    let r = jitter rng rel 4.0 in
    let c = jitter rng rel 0.5 in
    els := Capacitor { n1 = node; n2 = 0; c } :: Resistor { n1 = prev; n2 = node; r } :: !els
  done;
  make ~n_nodes ~n_inputs:1 ~output_node:out (List.rev !els)

type model = { family : family; q : Volterra.Qldae.t; build_s : float }

(* Assemble (MNA) and quadratize a netlist; [build_s] is the circuit
   layer's wall time for it. *)
let build family netlist =
  let q, build_s =
    Obs.Clock.time (fun () ->
        let assembled = Circuit.Netlist.assemble netlist in
        (Circuit.Quadratize.quadratize assembled).Circuit.Quadratize.qldae)
  in
  { family; q; build_s }

(* A variant of [family] with about [n] states (the ladder length is
   rounded to the family's state-count formula). *)
let variant rng ~rel family ~n =
  build family
    (match family with
    | Nltl_v -> nltl rng ~rel ~stages:(max 4 (n / 2)) ~source:`Voltage
    | Nltl_i -> nltl rng ~rel ~stages:(max 4 (n / 2)) ~source:`Current
    | Rf -> rf rng ~rel ~lna:(max 2 (n / 2)) ~pa:(max 2 (n - (n / 2)))
    | Varistor -> varistor rng ~rel ~sections:(max 1 (n - 5)))

(* ---- waveforms ----

   Three shapes, each with seeded parameters.  Amplitudes stay within
   [amp_lo, 1] times the family's peak drive, the range its ROMs are
   checked on.  The second input of the two-input RF receiver carries
   the interfering sine of the paper's Fig. 4. *)

type shape = Damped | Pulses | Two_tone

let shapes = [| Damped; Pulses; Two_tone |]

type wave = { sources : Waves.Source.t list; t1 : float }

let input w = Waves.Source.vectorize w.sources

let peak_amp = function Nltl_v -> 0.6 | Nltl_i -> 1.2 | Rf -> 1.0 | Varistor -> 0.8
let amp_lo = 0.5

(* [amp] pins the amplitude (set-up probes); otherwise it is seeded.
   [tscale] compresses time: every duration is multiplied and every
   frequency divided by it, so a short window sees the same shapes. *)
let wave ?amp ?(tscale = 1.0) rng family shape ~t1 =
  let amp =
    match amp with Some a -> a | None -> peak_amp family *. uniform rng amp_lo 1.0
  in
  let f0 = (match family with Rf -> 0.25 | Nltl_v | Nltl_i | Varistor -> 0.125) /. tscale in
  let main =
    match shape with
    | Damped ->
      let freq = f0 *. uniform rng 0.8 1.2 in
      Waves.Source.damped_sine ~freq ~decay:(uniform rng 0.05 0.1 /. tscale) amp
    | Pulses ->
      let time lo hi = tscale *. uniform rng lo hi in
      let rise = time 1.0 2.0 in
      let fall = time 1.0 2.0 in
      let flat = time 1.0 3.0 in
      Waves.Source.pulse_train ~rise ~fall ~flat ~period:(time 8.0 12.0) amp
    | Two_tone ->
      let f1 = f0 *. uniform rng 0.6 0.9 in
      let f2 = f0 *. uniform rng 1.1 1.5 in
      Waves.Source.two_tone ~f1 ~f2 (amp /. 2.0) (amp /. 2.0)
  in
  let sources =
    match family with
    | Rf ->
      let freq = uniform rng 0.7 1.1 /. tscale in
      [ main; Waves.Source.sine ~freq (uniform rng 0.2 0.5) ]
    | Nltl_v | Nltl_i | Varistor -> [ main ]
  in
  { sources; t1 }

(* ---- digest ----

   A fingerprint of generated inputs: every matrix and tensor entry of
   the models and each waveform sampled on a fixed grid.  The same seed
   must give the same digest and another seed a different one. *)

let digest ~models ~waves =
  let b = Buffer.create 4096 in
  let floats a = Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a in
  let mat m = floats (La.Mat.data m) in
  let tensor t =
    List.iter
      (fun (row, idx, c) ->
        Buffer.add_int32_le b (Int32.of_int row);
        Array.iter (fun i -> Buffer.add_int32_le b (Int32.of_int i)) idx;
        floats [| c |])
      (La.Sptensor.entries t)
  in
  List.iter
    (fun (q : Volterra.Qldae.t) ->
      mat q.g1;
      tensor q.g2;
      tensor q.g3;
      Array.iter mat q.d1;
      mat q.b;
      mat q.c)
    models;
  List.iter
    (fun w ->
      let u = input w in
      for k = 0 to 63 do
        floats (u (w.t1 *. float_of_int k /. 63.0))
      done)
    waves;
  Digest.to_hex (Digest.string (Buffer.contents b))
