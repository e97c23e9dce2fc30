(* Complex LU factorization with partial pivoting (by modulus). Used for
   frequency-domain transfer-function evaluation (sI - G1)^-1 at complex
   frequencies. *)

type t = { lu : Cmat.t; piv : int array }

let cmod2 re im = (re *. re) +. (im *. im)

let factor (a : Cmat.t) =
  if Cmat.rows a <> Cmat.cols a then invalid_arg "Clu.factor: not square";
  let n = Cmat.rows a in
  let lu = Cmat.copy a in
  let piv = Array.make n 0 in
  let re = lu.Cmat.re and im = lu.Cmat.im in
  let idx i j = (i * n) + j in
  for k = 0 to n - 1 do
    let p = ref k and best = ref (cmod2 re.(idx k k) im.(idx k k)) in
    for i = k + 1 to n - 1 do
      let m = cmod2 re.(idx i k) im.(idx i k) in
      if m > !best then begin
        best := m;
        p := i
      end
    done;
    piv.(k) <- !p;
    if !p <> k then
      for j = 0 to n - 1 do
        let tr = re.(idx k j) and ti = im.(idx k j) in
        re.(idx k j) <- re.(idx !p j);
        im.(idx k j) <- im.(idx !p j);
        re.(idx !p j) <- tr;
        im.(idx !p j) <- ti
      done;
    let pr = re.(idx k k) and pi = im.(idx k k) in
    let pm = cmod2 pr pi in
    if Contract.is_zero pm then raise (Lu.Singular k);
    for i = k + 1 to n - 1 do
      (* l = a_ik / pivot *)
      let ar = re.(idx i k) and ai = im.(idx i k) in
      let lr = ((ar *. pr) +. (ai *. pi)) /. pm in
      let li = ((ai *. pr) -. (ar *. pi)) /. pm in
      re.(idx i k) <- lr;
      im.(idx i k) <- li;
      if Contract.nonzero lr || Contract.nonzero li then
        for j = k + 1 to n - 1 do
          let ur = re.(idx k j) and ui = im.(idx k j) in
          re.(idx i j) <- re.(idx i j) -. ((lr *. ur) -. (li *. ui));
          im.(idx i j) <- im.(idx i j) -. ((lr *. ui) +. (li *. ur))
        done
    done
  done;
  { lu; piv }

let dim t = Cmat.rows t.lu

let solve t (b : Cvec.t) : Cvec.t =
  let n = dim t in
  if Cvec.dim b <> n then invalid_arg "Clu.solve: dimension mismatch";
  let x = Cvec.copy b in
  let re = t.lu.Cmat.re and im = t.lu.Cmat.im in
  let idx i j = (i * n) + j in
  for k = 0 to n - 1 do
    let p = t.piv.(k) in
    if p <> k then begin
      let tr = x.re.(k) and ti = x.im.(k) in
      x.re.(k) <- x.re.(p);
      x.im.(k) <- x.im.(p);
      x.re.(p) <- tr;
      x.im.(p) <- ti
    end
  done;
  for i = 1 to n - 1 do
    let sr = ref x.re.(i) and si = ref x.im.(i) in
    for j = 0 to i - 1 do
      let lr = re.(idx i j) and li = im.(idx i j) in
      sr := !sr -. ((lr *. x.re.(j)) -. (li *. x.im.(j)));
      si := !si -. ((lr *. x.im.(j)) +. (li *. x.re.(j)))
    done;
    x.re.(i) <- !sr;
    x.im.(i) <- !si
  done;
  for i = n - 1 downto 0 do
    let sr = ref x.re.(i) and si = ref x.im.(i) in
    for j = i + 1 to n - 1 do
      let ur = re.(idx i j) and ui = im.(idx i j) in
      sr := !sr -. ((ur *. x.re.(j)) -. (ui *. x.im.(j)));
      si := !si -. ((ur *. x.im.(j)) +. (ui *. x.re.(j)))
    done;
    let pr = re.(idx i i) and pi = im.(idx i i) in
    let pm = cmod2 pr pi in
    x.re.(i) <- ((!sr *. pr) +. (!si *. pi)) /. pm;
    x.im.(i) <- ((!si *. pr) -. (!sr *. pi)) /. pm
  done;
  x

let solve_system a b = solve (factor a) b
