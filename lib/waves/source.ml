(* Input waveform generators. All are pure functions of time returning a
   scalar; combine into multi-input vectors with {!vectorize}. *)

open La

type t = float -> float

let zero : t = fun _ -> 0.0

let constant a : t = fun _ -> a

let step ?(at = 0.0) amplitude : t = fun t -> if t >= at then amplitude else 0.0

(* Smooth turn-on step: amplitude (1 - e^{-t/tau}). *)
let smooth_step ?(tau = 1.0) amplitude : t =
 fun t -> if t <= 0.0 then 0.0 else amplitude *. (1.0 -. Float.exp (-.t /. tau))

let sine ?(phase = 0.0) ~freq amplitude : t =
 fun t -> amplitude *. sin ((2.0 *. Float.pi *. freq *. t) +. phase)

let two_tone ~f1 ~f2 a1 a2 : t =
 fun t ->
  (a1 *. sin (2.0 *. Float.pi *. f1 *. t)) +. (a2 *. sin (2.0 *. Float.pi *. f2 *. t))

(* Damped sine burst: the oscillatory excitation used for the NLTL
   transient figures. *)
let damped_sine ~freq ~decay amplitude : t =
 fun t ->
  if t <= 0.0 then 0.0
  else amplitude *. Float.exp (-.decay *. t) *. sin (2.0 *. Float.pi *. freq *. t)

(* Raised-cosine pulse of given width (integral = amplitude * width / 2). *)
let raised_cosine ?(at = 0.0) ~width amplitude : t =
 fun t ->
  let t = t -. at in
  if t < 0.0 || t > width then 0.0
  else amplitude *. 0.5 *. (1.0 -. cos (2.0 *. Float.pi *. t /. width))

(* Trapezoidal pulse train (rise/flat/fall and period), the classic
   digital-excitation waveform. *)
let pulse_train ?(rise = 0.1) ?(fall = 0.1) ?(flat = 1.0) ?(period = 4.0)
    amplitude : t =
 fun t ->
  let t = Float.rem t period in
  let t = if t < 0.0 then t +. period else t in
  if t < rise then amplitude *. t /. rise
  else if t < rise +. flat then amplitude
  else if t < rise +. flat +. fall then
    amplitude *. (1.0 -. ((t -. rise -. flat) /. fall))
  else 0.0

(* Double-exponential surge waveform (the standard lightning-test
   shape): A (e^{-t/t_fall} - e^{-t/t_rise}), normalized to peak at
   [amplitude]. The default ratio mimics the 8/20 µs current surge. *)
let surge ?(t_rise = 0.8) ?(t_fall = 2.0) amplitude : t =
  let tpk =
    Float.log (t_fall /. t_rise) /. ((1.0 /. t_rise) -. (1.0 /. t_fall))
  in
  let peak = Float.exp (-.tpk /. t_fall) -. Float.exp (-.tpk /. t_rise) in
  fun t ->
    if t <= 0.0 then 0.0
    else amplitude /. peak *. (Float.exp (-.t /. t_fall) -. Float.exp (-.t /. t_rise))

(* Combine scalar sources into the vector-valued input an m-input QLDAE
   expects. *)
let vectorize (sources : t list) : float -> Vec.t =
  let arr = Array.of_list sources in
  fun t -> Array.map (fun s -> s t) arr

let scale alpha (s : t) : t = fun t -> alpha *. s t

let add (a : t) (b : t) : t = fun t -> a t +. b t

let delay d (s : t) : t = fun t -> s (t -. d)
