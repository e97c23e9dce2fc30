(** Wall-clock access for the whole repo.

    All timing in vmor goes through this module; raw
    [Unix.gettimeofday] / [Sys.time] calls outside [lib/obs] are
    rejected by the [raw-clock] lint rule. *)

val now : unit -> float
(** Seconds since the epoch, sub-microsecond resolution. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed wall time in seconds. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [[0, 1]]: the [ceil (q * n)]-th smallest
    of the [n] samples (nearest rank, so always one of the samples;
    [q = 0] gives the minimum), leaving [xs] untouched.  [nan] when
    empty.  The one quantile in the repo, for distributions of timed
    walls; the [raw-quantile] lint rule points here. *)
