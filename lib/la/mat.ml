(* Dense real matrices, row-major over an unboxed [float array]. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let dims m = (m.rows, m.cols)

let rows m = m.rows

let cols m = m.cols

let data m = m.data

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let add_to m i j x =
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. x

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag (v : Vec.t) =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let diagonal m =
  let n = min m.rows m.cols in
  Vec.init n (fun i -> get m i i)

let copy m = { m with data = Array.copy m.data }

let of_arrays (a : float array array) =
  let rows = Array.length a in
  if rows = 0 then create 0 0
  else begin
    let cols = Array.length a.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
      a;
    init rows cols (fun i j -> a.(i).(j))
  end

let of_list ll = of_arrays (Array.of_list (List.map Array.of_list ll))

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Mat.%s: dimension mismatch (%dx%d vs %dx%d)" name a.rows
         a.cols b.rows b.cols)

let map f m = { m with data = Array.map f m.data }

let map2 f a b =
  check_same_dims "map2" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 ( +. ) a b

let sub a b = map2 ( -. ) a b

let scale alpha m = map (fun x -> alpha *. x) m

let neg m = map (fun x -> -.x) m

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Mat.mul: inner dimension mismatch (%dx%d * %dx%d)"
         a.rows a.cols b.rows b.cols);
  let c = create a.rows b.cols in
  let n = a.cols and p = b.cols in
  Obs.Cost.charge Obs.Cost.Flops_matmul
    (2 * a.rows * n * p)
    ~read:((a.rows * n) + (n * p))
    ~written:(a.rows * p);
  (* ikj loop order: stream through rows of [b], cache friendly. *)
  for i = 0 to a.rows - 1 do
    let arow = i * n and crow = i * p in
    for k = 0 to n - 1 do
      let aik = a.data.(arow + k) in
      if Contract.nonzero aik then begin
        let brow = k * p in
        for j = 0 to p - 1 do
          c.data.(crow + j) <- c.data.(crow + j) +. (aik *. b.data.(brow + j))
        done
      end
    done
  done;
  c

let mul_vec m (v : Vec.t) : Vec.t =
  if m.cols <> Array.length v then
    invalid_arg
      (Printf.sprintf "Mat.mul_vec: dimension mismatch (%dx%d * %d)" m.rows
         m.cols (Array.length v));
  Obs.Metrics.incr Obs.Metrics.Matvec;
  Obs.Cost.charge Obs.Cost.Flops_matvec
    (2 * m.rows * m.cols)
    ~read:((m.rows * m.cols) + m.cols)
    ~written:m.rows;
  let out = Vec.create m.rows in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. (m.data.(row + j) *. v.(j))
    done;
    out.(i) <- !s
  done;
  out

(* out <- beta * out + alpha * m * v *)
let gemv ?(alpha = 1.0) ?(beta = 0.0) m (v : Vec.t) (out : Vec.t) =
  if m.cols <> Array.length v || m.rows <> Array.length out then
    invalid_arg "Mat.gemv: dimension mismatch";
  Obs.Cost.charge Obs.Cost.Flops_matvec
    ((2 * m.rows * m.cols) + (3 * m.rows))
    ~read:((m.rows * m.cols) + m.cols + m.rows)
    ~written:m.rows;
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. (m.data.(row + j) *. v.(j))
    done;
    out.(i) <- (beta *. out.(i)) +. (alpha *. !s)
  done

let mul_vec_transpose m (v : Vec.t) : Vec.t =
  if m.rows <> Array.length v then
    invalid_arg "Mat.mul_vec_transpose: dimension mismatch";
  Obs.Cost.charge Obs.Cost.Flops_matvec
    (2 * m.rows * m.cols)
    ~read:((m.rows * m.cols) + m.rows)
    ~written:m.cols;
  let out = Vec.create m.cols in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    let vi = v.(i) in
    if Contract.nonzero vi then
      for j = 0 to m.cols - 1 do
        out.(j) <- out.(j) +. (m.data.(row + j) *. vi)
      done
  done;
  out

let outer (u : Vec.t) (v : Vec.t) =
  init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let trace m =
  let n = min m.rows m.cols in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    s := !s +. get m i i
  done;
  !s

let norm_fro m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs (get m i j)
    done;
    if !s > !best then best := !s
  done;
  !best

let norm1 m = norm_inf (transpose m)

let max_abs m = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.data

let col m j = Vec.init m.rows (fun i -> get m i j)

let row m i = Vec.init m.cols (fun j -> get m i j)

let set_col m j (v : Vec.t) =
  if Array.length v <> m.rows then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to m.rows - 1 do
    set m i j v.(i)
  done

let of_cols (vs : Vec.t list) =
  match vs with
  | [] -> create 0 0
  | v0 :: _ ->
    let rows = Array.length v0 in
    let m = create rows (List.length vs) in
    List.iteri
      (fun j v ->
        if Array.length v <> rows then invalid_arg "Mat.of_cols: ragged columns";
        set_col m j v)
      vs;
    m

let cols_list m = List.init m.cols (fun j -> col m j)

let submatrix m ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || row + rows > m.rows || col + cols > m.cols then
    invalid_arg "Mat.submatrix: out of bounds";
  init rows cols (fun i j -> get m (row + i) (col + j))

let blit ~src ~dst ~row ~col =
  if row + src.rows > dst.rows || col + src.cols > dst.cols then
    invalid_arg "Mat.blit: out of bounds";
  for i = 0 to src.rows - 1 do
    Array.blit src.data (i * src.cols) dst.data (((row + i) * dst.cols) + col)
      src.cols
  done

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Mat.hcat: row mismatch";
  let m = create a.rows (a.cols + b.cols) in
  blit ~src:a ~dst:m ~row:0 ~col:0;
  blit ~src:b ~dst:m ~row:0 ~col:a.cols;
  m

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: column mismatch";
  let m = create (a.rows + b.rows) a.cols in
  blit ~src:a ~dst:m ~row:0 ~col:0;
  blit ~src:b ~dst:m ~row:a.rows ~col:0;
  m

let swap_rows m i j =
  if i <> j then
    for k = 0 to m.cols - 1 do
      let t = get m i k in
      set m i k (get m j k);
      set m j k t
    done

let is_square m = m.rows = m.cols

let is_symmetric ?(tol = 1e-12) m =
  is_square m
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if Float.abs (get m i j -. get m j i) > tol then ok := false
    done
  done;
  !ok

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && norm_fro (sub a b) <= tol *. (1.0 +. norm_fro a)

let random ~rng rows cols =
  init rows cols (fun _ _ -> (2.0 *. Random.State.float rng 1.0) -. 1.0)

let random_vec ~rng n =
  Vec.init n (fun _ -> (2.0 *. Random.State.float rng 1.0) -. 1.0)
