(** The paper's four experiments (§3.1–3.4) and Table 1, parameterized
    so they can run at paper scale ([scale = 1.0]) or scaled down for
    smoke runs. *)

(** §3.1 / Fig. 2: NLTL with voltage source (D1 term present). *)
val fig2 : ?scale:float -> ?samples:int -> unit -> Common.t

(** §3.2 / Fig. 3 + Table 1 rows: NLTL with current source, proposed vs
    NORM at the same moment orders. *)
val fig3 : ?scale:float -> ?samples:int -> unit -> Common.t

(** §3.3 / Fig. 4 + Table 1 rows: MISO RF receiver, signal + interfering
    noise, proposed vs NORM. *)
val fig4 :
  ?scale:float ->
  ?samples:int ->
  ?h3_triples:[ `All | `Diagonal ] ->
  unit ->
  Common.t

(** §3.4 / Fig. 5: ZnO varistor surge protection (cubic ODE), proposed
    method only, reported in absolute volts on the standing supply. *)
val fig5 : ?scale:float -> ?samples:int -> unit -> Common.t

(** Table 1 = timing rows of the §3.2 and §3.3 experiments. *)
val table1 : ?scale:float -> unit -> Common.t list

(** Surge input series for Fig. 5's upper panel. *)
val fig5_input_series : Common.t -> float array
