(** Circuit netlists and modified-nodal-analysis (MNA) assembly.

    Nodes are numbered [1..n_nodes] with [0] = ground. The assembled
    state vector is [[node voltages; inductor currents]] and satisfies
    the descriptor form

    {v E x' = -G x - (nonlinear device currents) + B u v}

    with [E] invertible (every node needs a capacitive path — true of
    all the paper's circuits; cf. the singular-C discussion in the
    paper's §4). *)

open La

type node = int

type element =
  | Resistor of { n1 : node; n2 : node; r : float }
  | Capacitor of { n1 : node; n2 : node; c : float }
  | Inductor of { n1 : node; n2 : node; l : float }
  | Diode of { n1 : node; n2 : node; alpha : float; scale : float }
      (** [i = scale (e^{alpha (v1-v2)} - 1)] flowing [n1 → n2] — the
          paper's [e^{40 v} - 1] diode is [alpha = 40, scale = 1] *)
  | Poly_conductor of {
      n1 : node;
      n2 : node;
      g1 : float;
      g2 : float;
      g3 : float;
    }  (** [i = g1 w + g2 w² + g3 w³], [w = v1 - v2] *)
  | Current_source of { n1 : node; n2 : node; input : int; gain : float }
      (** [gain·u_input] injected into [n1], drawn from [n2] *)
  | Vccs of { cp : node; cn : node; op : node; on : node; gm : float }
      (** voltage-controlled current source: [gm (v_cp − v_cn)] flowing
          [op → on] — the active element of amplifier stages *)

type t = {
  n_nodes : int;
  n_inputs : int;
  elements : element list;
  output_node : node;
}

(** Validate and build a netlist. *)
val make : n_nodes:int -> n_inputs:int -> output_node:node -> element list -> t

(** A voltage source with series resistance as its Norton equivalent
    (how the §3.1 voltage drive enters MNA with invertible [E]). *)
val thevenin_source : node:node -> input:int -> r:float -> element list

type nonlinear_branch = {
  incidence : (int * float) list;
  kind : [ `Exp of float * float | `Poly of float * float ];
}

type assembled = {
  netlist : t;
  n_states : int;
  n_inductors : int;
  e_mat : Mat.t;
  g_mat : Mat.t;
  b_mat : Mat.t;
  branches : nonlinear_branch list;
  output_index : int;
}

(** Assemble the MNA matrices and nonlinear branch list. *)
val assemble : t -> assembled

(** Branch voltage [w = qᵀ x] from an incidence list. *)
val branch_voltage : (int * float) list -> Vec.t -> float

(** The raw (un-quadratized) nonlinear ODE
    [x' = E⁻¹(−G x − i_nl(x) + B u)] — ground truth for validating the
    quadratization. *)
val to_ode_system : assembled -> input:(float -> Vec.t) -> Ode.Types.system

(** DC operating point: damped Newton on
    [−G x − i_nl(x) + B u0 = 0]. Solve at circuit level (equilibria are
    isolated here; the quadratized system has a continuum of off-manifold
    equilibria) and lift with {!Quadratize.lift}. *)
val dc_operating_point :
  ?tol:float -> ?max_iter:int -> assembled -> u0:Vec.t -> Vec.t
