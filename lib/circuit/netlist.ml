(* Circuit netlists and modified-nodal-analysis (MNA) assembly.

   Nodes are numbered 1..n_nodes with 0 = ground. The state vector is
   [node voltages; inductor currents]. Assembly produces the descriptor
   form

     E x' = -G x - (nonlinear device currents) + B u

   with E required invertible (every node must have a capacitive path —
   true of all the paper's circuits; see DESIGN.md on the singular-C
   discussion of the paper's §4). *)

open La

type node = int

type element =
  | Resistor of { n1 : node; n2 : node; r : float }
  | Capacitor of { n1 : node; n2 : node; c : float }
  | Inductor of { n1 : node; n2 : node; l : float }
  | Diode of { n1 : node; n2 : node; alpha : float; scale : float }
      (* i = scale (e^{alpha (v1 - v2)} - 1), flowing n1 -> n2 *)
  | Poly_conductor of { n1 : node; n2 : node; g1 : float; g2 : float; g3 : float }
      (* i = g1 w + g2 w^2 + g3 w^3, w = v1 - v2, flowing n1 -> n2 *)
  | Current_source of { n1 : node; n2 : node; input : int; gain : float }
      (* gain * u_input injected into n1, drawn from n2 *)
  | Vccs of { cp : node; cn : node; op : node; on : node; gm : float }
      (* voltage-controlled current source: gm (v_cp - v_cn) flows
         op -> on; the active element of amplifier stages *)

type t = {
  n_nodes : int;
  n_inputs : int;
  elements : element list;
  output_node : node;  (* observed node voltage *)
}

let make ~n_nodes ~n_inputs ~output_node elements =
  let check_node ctx n =
    if n < 0 || n > n_nodes then
      invalid_arg (Printf.sprintf "Netlist: %s node %d out of range" ctx n)
  in
  List.iter
    (function
      | Resistor { n1; n2; r } ->
        check_node "resistor" n1;
        check_node "resistor" n2;
        if r <= 0.0 then invalid_arg "Netlist: resistance must be positive"
      | Capacitor { n1; n2; c } ->
        check_node "capacitor" n1;
        check_node "capacitor" n2;
        if c <= 0.0 then invalid_arg "Netlist: capacitance must be positive"
      | Inductor { n1; n2; l } ->
        check_node "inductor" n1;
        check_node "inductor" n2;
        if l <= 0.0 then invalid_arg "Netlist: inductance must be positive"
      | Diode { n1; n2; _ } ->
        check_node "diode" n1;
        check_node "diode" n2
      | Poly_conductor { n1; n2; _ } ->
        check_node "poly" n1;
        check_node "poly" n2
      | Current_source { n1; n2; input; _ } ->
        check_node "source" n1;
        check_node "source" n2;
        if input < 0 || input >= n_inputs then
          invalid_arg "Netlist: source input index out of range"
      | Vccs { cp; cn; op; on; _ } ->
        check_node "vccs" cp;
        check_node "vccs" cn;
        check_node "vccs" op;
        check_node "vccs" on)
    elements;
  check_node "output" output_node;
  if output_node = 0 then invalid_arg "Netlist: output node cannot be ground";
  { n_nodes; n_inputs; elements; output_node }

(* A Thevenin voltage source (voltage waveform u with series resistance
   r into [node]) as its Norton equivalent — this is how the paper's
   §3.1 "voltage source" drive enters an MNA formulation that keeps C
   invertible. *)
let thevenin_source ~node ~input ~r =
  [
    Current_source { n1 = node; n2 = 0; input; gain = 1.0 /. r };
    Resistor { n1 = node; n2 = 0; r };
  ]

(* ---- assembly ---- *)

type nonlinear_branch = {
  incidence : (int * float) list;  (* state indices with signs, ground dropped *)
  kind : [ `Exp of float * float  (* alpha, scale *)
         | `Poly of float * float  (* g2, g3; g1 already stamped in G *) ];
}

type assembled = {
  netlist : t;
  n_states : int;  (* node voltages + inductor currents *)
  n_inductors : int;
  e_mat : Mat.t;
  g_mat : Mat.t;
  b_mat : Mat.t;
  branches : nonlinear_branch list;
  output_index : int;
}

let state_of_node n = n - 1

(* incidence for the branch voltage w = v_{n1} - v_{n2}, ground dropped *)
let incidence n1 n2 =
  List.filter (fun (i, _) -> i >= 0)
    [ (state_of_node n1, 1.0); (state_of_node n2, -1.0) ]

let assemble (netlist : t) : assembled =
  let n_inductors =
    List.length
      (List.filter (function Inductor _ -> true | _ -> false) netlist.elements)
  in
  let nv = netlist.n_nodes in
  let n = nv + n_inductors in
  let e = Mat.create n n and g = Mat.create n n in
  let b = Mat.create n netlist.n_inputs in
  let branches = ref [] in
  let next_inductor = ref nv in
  let stamp_pair m n1 n2 value =
    (* stamp a two-terminal conductance-style contribution *)
    let a = state_of_node n1 and bq = state_of_node n2 in
    if a >= 0 then Mat.add_to m a a value;
    if bq >= 0 then Mat.add_to m bq bq value;
    if a >= 0 && bq >= 0 then begin
      Mat.add_to m a bq (-.value);
      Mat.add_to m bq a (-.value)
    end
  in
  List.iter
    (function
      | Resistor { n1; n2; r } -> stamp_pair g n1 n2 (1.0 /. r)
      | Capacitor { n1; n2; c } -> stamp_pair e n1 n2 c
      | Inductor { n1; n2; l } ->
        let k = !next_inductor in
        incr next_inductor;
        Mat.set e k k l;
        (* node KCL: current k leaves n1, enters n2: -G x must contain
           -i_k at n1 => G[n1,k] = +1 *)
        let a = state_of_node n1 and bq = state_of_node n2 in
        if a >= 0 then Mat.add_to g a k 1.0;
        if bq >= 0 then Mat.add_to g bq k (-1.0);
        (* branch: L di/dt = v_{n1} - v_{n2} => -G row *)
        if a >= 0 then Mat.add_to g k a (-1.0);
        if bq >= 0 then Mat.add_to g k bq 1.0
      | Diode { n1; n2; alpha; scale } ->
        branches :=
          { incidence = incidence n1 n2; kind = `Exp (alpha, scale) }
          :: !branches
      | Poly_conductor { n1; n2; g1; g2; g3 } ->
        if Contract.nonzero g1 then stamp_pair g n1 n2 g1;
        if Contract.nonzero g2 || Contract.nonzero g3 then
          branches := { incidence = incidence n1 n2; kind = `Poly (g2, g3) } :: !branches
      | Current_source { n1; n2; input; gain } ->
        let a = state_of_node n1 and bq = state_of_node n2 in
        if a >= 0 then Mat.add_to b a input gain;
        if bq >= 0 then Mat.add_to b bq input (-.gain)
      | Vccs { cp; cn; op; on; gm } ->
        (* current gm (v_cp - v_cn) leaves op, enters on: rows op/on of
           -G x must carry -/+ gm (v_cp - v_cn) *)
        let stamp_out out sign =
          let o = state_of_node out in
          if o >= 0 then begin
            let c1 = state_of_node cp and c2 = state_of_node cn in
            if c1 >= 0 then Mat.add_to g o c1 (sign *. gm);
            if c2 >= 0 then Mat.add_to g o c2 (-.sign *. gm)
          end
        in
        stamp_out op 1.0;
        stamp_out on (-1.0))
    netlist.elements;
  {
    netlist;
    n_states = n;
    n_inductors;
    e_mat = e;
    g_mat = g;
    b_mat = b;
    branches = List.rev !branches;
    output_index = state_of_node netlist.output_node;
  }

(* branch voltage from incidence *)
let branch_voltage inc (x : Vec.t) =
  List.fold_left (fun acc (i, s) -> acc +. (s *. x.(i))) 0.0 inc

(* Branch current magnitude and its derivative d i / d w. *)
let branch_current kind w =
  match kind with
  | `Exp (alpha, scale) ->
    let e = Float.exp (alpha *. w) in
    (scale *. (e -. 1.0), scale *. alpha *. e)
  | `Poly (g2, g3) ->
    ((g2 *. w *. w) +. (g3 *. w *. w *. w),
     (2.0 *. g2 *. w) +. (3.0 *. g3 *. w *. w))

(* The raw (un-quadratized) nonlinear ODE x' = E^-1 (-G x - i_nl(x) + B u),
   used as ground truth when validating the quadratization. *)
let to_ode_system (a : assembled) ~(input : float -> Vec.t) : Ode.Types.system =
  let elu = Lu.factor a.e_mat in
  let rhs t (x : Vec.t) =
    let acc = Vec.neg (Mat.mul_vec a.g_mat x) in
    List.iter
      (fun br ->
        let w = branch_voltage br.incidence x in
        let i, _ = branch_current br.kind w in
        List.iter (fun (k, s) -> acc.(k) <- acc.(k) -. (s *. i)) br.incidence)
      a.branches;
    let u = input t in
    Vec.axpy ~alpha:1.0 (Mat.mul_vec a.b_mat u) acc;
    Lu.solve elu acc
  in
  let jac t (x : Vec.t) =
    ignore t;
    let j = Mat.neg a.g_mat in
    List.iter
      (fun br ->
        let w = branch_voltage br.incidence x in
        let _, di = branch_current br.kind w in
        List.iter
          (fun (k, sk) ->
            List.iter
              (fun (l, sl) -> Mat.add_to j k l (-.sk *. di *. sl))
              br.incidence)
          br.incidence)
      a.branches;
    Lu.solve_mat elu j
  in
  { Ode.Types.dim = a.n_states; rhs; jac = Some jac }

(* DC operating point of the circuit: damped Newton on
   -G x - i_nl(x) + B u0 = 0. Solved at circuit level (where equilibria
   are isolated); quadratized systems inherit it through
   [Quadratize.lift], which puts the auxiliary states on their exact
   manifold. *)
let dc_operating_point ?(tol = 1e-12) ?(max_iter = 80) (a : assembled)
    ~(u0 : Vec.t) : Vec.t =
  let residual (x : Vec.t) =
    let acc = Vec.neg (Mat.mul_vec a.g_mat x) in
    List.iter
      (fun br ->
        let w = branch_voltage br.incidence x in
        let i, _ = branch_current br.kind w in
        List.iter (fun (k, s) -> acc.(k) <- acc.(k) -. (s *. i)) br.incidence)
      a.branches;
    Vec.axpy ~alpha:1.0 (Mat.mul_vec a.b_mat u0) acc;
    acc
  in
  let jac (x : Vec.t) =
    let j = Mat.neg a.g_mat in
    List.iter
      (fun br ->
        let w = branch_voltage br.incidence x in
        let _, di = branch_current br.kind w in
        List.iter
          (fun (k, sk) ->
            List.iter
              (fun (l, sl) -> Mat.add_to j k l (-.sk *. di *. sl))
              br.incidence)
          br.incidence)
      a.branches;
    j
  in
  let x = ref (Vec.create a.n_states) in
  let converged = ref false in
  let iter = ref 0 in
  while (not !converged) && !iter < max_iter do
    incr iter;
    let f = residual !x in
    if Vec.norm2 f <= tol *. (1.0 +. Vec.norm2 !x) then converged := true
    else begin
      let dx = Lu.solve_system (jac !x) f in
      let norm0 = Vec.norm2 f in
      let step = ref 1.0 and accepted = ref false in
      while not !accepted do
        let cand = Vec.copy !x in
        Vec.axpy ~alpha:(-. !step) dx cand;
        if Vec.norm2 (residual cand) < norm0 || !step < 1e-8 then begin
          x := cand;
          accepted := true
        end
        else step := !step /. 2.0
      done
    end
  done;
  if not !converged then
    Robust.Error.raise_error
      (Robust.Error.Convergence_failure
         {
           loc =
             Robust.Error.loc ~subsystem:"circuit"
               ~operation:"Netlist.dc_operating_point";
           detail = "Newton stalled";
         });
  !x
