(** Error metrics between sampled waveforms — the quantities plotted in
    the paper's relative-error figures (2c, 3b, 4c). *)

(** Pointwise error normalized by the reference's peak magnitude (the
    paper's relative-error convention; robust at zero crossings). *)
val relative_error_series :
  reference:float array -> approx:float array -> float array

val max_relative_error : reference:float array -> approx:float array -> float
val rms : float array -> float

(** Largest magnitude of a series. *)
val peak : float array -> float

(** RMS error over RMS of the reference. *)
val nrmse : reference:float array -> approx:float array -> float
