(* The full model's side of a Romdiag check, built from a fresh engine
   about [s0]: the head of every series of each order whose count in
   [orders] is positive — what a reducer that stepped those series hands
   over. *)

open Volterra

let fresh ?triples_mode ~orders:(k1, k2, k3) ~s0 q =
  let eng = Assoc.create ~s0 q in
  let heads k order =
    if k <= 0 then []
    else
      List.map
        (fun s -> fst (Option.get (Seq.uncons s)))
        (Assoc.series ?triples_mode eng ~order)
  in
  Mor.Romdiag.side ?triples_mode (Lazy.from_val eng)
    (heads k1 1, heads k2 2, heads k3 3)
