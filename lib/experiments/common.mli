(** Shared experiment plumbing: run a full model and a set of ROMs on
    the same excitation, collect outputs, relative errors and timings,
    and render the paper-style report. *)

(** One reduced-order model's run within an experiment. *)
type rom_run = {
  method_name : string;
  order : int;
  raw_moments : int;
  reduction_seconds : float;
  sim_seconds : float;
  output : float array;
  rel_error : float array;
  max_rel_error : float;
}

(** A complete experiment: the full model's transient plus every ROM
    run against it. *)
type t = {
  id : string;  (** "fig2", "fig3", ... *)
  title : string;
  n_full : int;
  input_desc : string;
  times : float array;
  full_output : float array;
  full_sim_seconds : float;
  runs : rom_run list;
}

(** [timed f] runs [f ()] and returns its result with the elapsed wall
    time in seconds. *)
val timed : (unit -> 'a) -> 'a * float

(** Run the full model once, then every named reduction against it. *)
val build :
  id:string ->
  title:string ->
  input_desc:string ->
  ?solver:Volterra.Qldae.solver ->
  Volterra.Qldae.t ->
  input:(float -> La.Vec.t) ->
  t1:float ->
  samples:int ->
  methods:(string * (Volterra.Qldae.t -> Mor.Atmor.result)) list ->
  t

(** Render the experiment report (summary lines and, unless
    [~plots:false], terminal plots of outputs and errors). *)
val report : ?plots:bool -> Format.formatter -> t -> unit

(** Write the experiment's series to [dir]/[id].csv; returns the path. *)
val to_csv : dir:string -> t -> string

(** Paper Table 1: reduction and transient times, original vs ROMs. *)
val table1_rows : Format.formatter -> t list -> unit
