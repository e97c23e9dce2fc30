(* Dense real vectors backed by unboxed [float array]. *)

type t = float array

let create n = Array.make n 0.0

let init n f = Array.init n f

let copy (v : t) : t = Array.copy v

let of_list l : t = Array.of_list l

let of_array (a : float array) : t = Array.copy a

let fill (v : t) x = Array.fill v 0 (Array.length v) x

let basis n i =
  let v = create n in
  v.(i) <- 1.0;
  v

let constant n x : t = Array.make n x

let check_same_dim name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
         (Array.length a) (Array.length b))

let map f (v : t) : t = Array.map f v

let map2 f (a : t) (b : t) : t =
  check_same_dim "map2" a b;
  Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let add a b = map2 ( +. ) a b

let sub a b = map2 ( -. ) a b

let neg v = map (fun x -> -.x) v

let scale alpha (v : t) : t = Array.map (fun x -> alpha *. x) v

let scale_inplace alpha (v : t) =
  for i = 0 to Array.length v - 1 do
    v.(i) <- alpha *. v.(i)
  done

(* y <- y + alpha * x *)
let axpy ~alpha (x : t) (y : t) =
  check_same_dim "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let dot (a : t) (b : t) =
  check_same_dim "dot" a b;
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let norm2 v = sqrt (dot v v)

let norm_inf (v : t) =
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v

let norm1 (v : t) = Array.fold_left (fun acc x -> acc +. Float.abs x) 0.0 v

let dist2 a b = norm2 (sub a b)

(* Relative l2 error of [approx] against [exact], guarding the zero vector. *)
let rel_err ~exact ~approx =
  let d = dist2 exact approx in
  let n = norm2 exact in
  if Contract.is_zero n then d else d /. n

let approx_equal ?(tol = 1e-9) a b = dist2 a b <= tol *. (1.0 +. norm2 a)

let concat (vs : t list) : t = Array.concat vs

let slice (v : t) ~pos ~len : t = Array.sub v pos len

let blit ~src ~dst ~pos =
  Contract.require "Vec.blit"
    (pos >= 0 && pos + Array.length src <= Array.length dst)
    "dimension mismatch"
    (Printf.sprintf "src length %d at offset %d exceeds dst length %d"
       (Array.length src) pos (Array.length dst));
  Array.blit src 0 dst pos (Array.length src)

let max_abs_index (v : t) =
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if Float.abs v.(i) > Float.abs v.(!best) then best := i
  done;
  !best

let is_finite (v : t) = Array.for_all (fun x -> Float.is_finite x) v
