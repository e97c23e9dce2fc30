(** Input waveform generators: pure scalar functions of time, combined
    into vector-valued QLDAE inputs with {!vectorize}. *)

open La

type t = float -> float

val zero : t
val constant : float -> t

(** Ideal step at time [at] (default 0). *)
val step : ?at:float -> float -> t

(** [amplitude (1 − e^{−t/tau})]. *)
val smooth_step : ?tau:float -> float -> t

val sine : ?phase:float -> freq:float -> float -> t
val two_tone : f1:float -> f2:float -> float -> float -> t

(** Damped sine burst — the oscillatory NLTL excitation. *)
val damped_sine : freq:float -> decay:float -> float -> t

(** Raised-cosine pulse starting at [at] with the given width. *)
val raised_cosine : ?at:float -> width:float -> float -> t

(** Trapezoidal pulse train. *)
val pulse_train :
  ?rise:float -> ?fall:float -> ?flat:float -> ?period:float -> float -> t

(** Double-exponential surge (standard lightning-test shape), peak
    normalized to [amplitude]. *)
val surge : ?t_rise:float -> ?t_fall:float -> float -> t

(** Stack scalar sources into a vector input. *)
val vectorize : t list -> float -> Vec.t

val scale : float -> t -> t
val add : t -> t -> t
val delay : float -> t -> t
