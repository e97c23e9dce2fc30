(* The single place in the repo allowed to read the wall clock.  A lint
   rule (raw-clock) forbids [Unix.gettimeofday] / [Sys.time] everywhere
   outside lib/obs, so every timing measurement is attributable to this
   module and can be redirected or mocked in one place. *)

let now () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let y = f () in
  (y, now () -. t0)

(* Nearest rank: the ceil (q n)-th smallest sample, on a sorted copy. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end
