(* seeded raw-quantile violations: ad-hoc quantile math outside lib/obs *)
let quantile xs q = List.nth xs (int_of_float (q *. float_of_int (List.length xs)))
let p99 xs = quantile xs 0.99
let p95 xs = Stats.percentile xs 95.0
let fine xs = Obs.Clock.quantile xs 0.5
