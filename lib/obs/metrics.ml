(* Process-wide kernel counters, gauges and histograms.

   Counters are the hot primitive: each domain accumulates into its own
   flat int array held in a [Domain.DLS] slot, so an increment is one
   atomic-flag load, one DLS fetch and one bounds-checked store — no
   lock, no contention, no false sharing between domains.  Readers
   merge every registered per-domain array under [mu]; after
   [Domain.join] the merge is exact because the child's publishes
   happen-before the join.

   [set_enabled false] turns every recording operation into a no-op,
   which gives the overhead benchmark a genuine uninstrumented
   baseline.  Gauges and histograms are string-keyed, only touched on
   cold paths (end of a reduction, end of a simulation), and guarded
   by the same mutex. *)

type counter =
  | Lu_factor
  | Lu_solve
  | Shifted_solve
  | Matvec
  | Arnoldi_iter
  | Deflation_discard
  | Ode_step
  | Ode_rejected
  | Newton_iter
  | Ladder_attempt
  | Recovery_event
  | Budget_poll

let n_counters = 12

let index = function
  | Lu_factor -> 0
  | Lu_solve -> 1
  | Shifted_solve -> 2
  | Matvec -> 3
  | Arnoldi_iter -> 4
  | Deflation_discard -> 5
  | Ode_step -> 6
  | Ode_rejected -> 7
  | Newton_iter -> 8
  | Ladder_attempt -> 9
  | Recovery_event -> 10
  | Budget_poll -> 11

let name = function
  | Lu_factor -> "lu_factor"
  | Lu_solve -> "lu_solve"
  | Shifted_solve -> "shifted_solve"
  | Matvec -> "matvec"
  | Arnoldi_iter -> "arnoldi_iter"
  | Deflation_discard -> "deflation_discard"
  | Ode_step -> "ode_step"
  | Ode_rejected -> "ode_rejected"
  | Newton_iter -> "newton_iter"
  | Ladder_attempt -> "ladder_attempt"
  | Recovery_event -> "recovery_event"
  | Budget_poll -> "budget_poll"

let all =
  [ Lu_factor; Lu_solve; Shifted_solve; Matvec; Arnoldi_iter;
    Deflation_discard; Ode_step; Ode_rejected; Newton_iter;
    Ladder_attempt; Recovery_event; Budget_poll ]

let mu = Mutex.create ()

(* Every per-domain counter array ever handed out.  Arrays outlive
   their domain so joined children keep contributing to the merge. *)
let domains : int array list ref = ref [] [@@vmor.sync "guarded by mu"]

let slot =
  Domain.DLS.new_key (fun () ->
      let a = Array.make n_counters 0 in
      Mutex.protect mu (fun () -> domains := a :: !domains);
      a)

let enabled = Atomic.make true

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let incr ?(by = 1) c =
  if Atomic.get enabled then begin
    let a = Domain.DLS.get slot in
    let i = index c in
    a.(i) <- a.(i) + by
  end

(* Merge-on-read: sum every registered domain's array under the lock. *)
let merged () =
  Mutex.protect mu (fun () ->
      let out = Array.make n_counters 0 in
      List.iter
        (fun a ->
          for i = 0 to n_counters - 1 do
            out.(i) <- out.(i) + a.(i)
          done)
        !domains;
      out)

let get c = (merged ()).(index c)

(* ------------------------------------------------------------------ *)
(* Gauges: last-write-wins named floats.                              *)

let gauge_tbl : (string, float) Hashtbl.t =
  Hashtbl.create 16 [@@vmor.sync "guarded by mu"]

let set_gauge k v =
  if Atomic.get enabled then
    Mutex.protect mu (fun () -> Hashtbl.replace gauge_tbl k v)

let gauges () =
  Mutex.protect mu (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauge_tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Histograms: backed by the deterministic bucketed [Qhist] store.    *)

let observe k v = if Atomic.get enabled then Qhist.observe k v

(* ------------------------------------------------------------------ *)
(* Snapshots and deltas.                                              *)

type snapshot = int array

let snapshot () = merged ()

let since (snap : snapshot) =
  let now = merged () in
  List.filter_map
    (fun c ->
      let d = now.(index c) - snap.(index c) in
      if d = 0 then None else Some (c, d))
    all

let reset () =
  Mutex.protect mu (fun () ->
      List.iter (fun a -> Array.fill a 0 n_counters 0) !domains;
      Hashtbl.reset gauge_tbl);
  Qhist.reset ()

(* ------------------------------------------------------------------ *)
(* Domain-local snapshots (the [Scope] primitive).

   [local_snapshot] copies only the calling domain's accumulator —
   no lock, no merge — and [local_since] diffs against it on the same
   domain.  Because a domain's array is written by that domain alone,
   the delta is exact even while other domains are running: this is
   what keeps concurrent scopes from smearing each other's counts. *)

type local_snapshot = int array

let local_snapshot () = Array.copy (Domain.DLS.get slot)

let local_since (snap : local_snapshot) =
  let a = Domain.DLS.get slot in
  List.filter_map
    (fun c ->
      let d = a.(index c) - snap.(index c) in
      if d = 0 then None else Some (c, d))
    all

(* ------------------------------------------------------------------ *)
(* Rendering.                                                         *)

(* Histogram statistics get proper per-stat columns; counter and gauge
   rows carry their single value in [value] and leave the stat columns
   empty. *)
let to_csv_string () =
  let now = merged () in
  let b = Buffer.create 512 in
  Buffer.add_string b "kind,name,value,count,sum,sumsq,min,max,stddev\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "counter,%s,%d,,,,,,\n" (name c) now.(index c)))
    all;
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf "gauge,%s,%.9g,,,,,,\n" k v))
    (gauges ());
  List.iter
    (fun (k, (h : Qhist.view)) ->
      Buffer.add_string b
        (Printf.sprintf "histogram,%s,,%d,%.9g,%.9g,%.9g,%.9g,%.9g\n"
           k h.count h.sum h.sumsq h.minv h.maxv (Qhist.stddev h)))
    (Qhist.all ());
  Buffer.contents b

let write_csv path =
  let oc = open_out path in
  output_string oc (to_csv_string ());
  close_out oc

let render_table () =
  let now = merged () in
  let b = Buffer.create 512 in
  let rule = String.make 46 '-' in
  Buffer.add_string b "vmor metrics\n";
  Buffer.add_string b (rule ^ "\n");
  List.iter
    (fun c ->
      let v = now.(index c) in
      if v > 0 then
        Buffer.add_string b (Printf.sprintf "  %-24s %12d\n" (name c) v))
    all;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "  %-24s %12.6g\n" k v))
    (gauges ());
  List.iter
    (fun (k, (h : Qhist.view)) ->
      Buffer.add_string b
        (Printf.sprintf "  %-24s n=%d avg=%.4g sd=%.4g min=%.4g max=%.4g\n" k
           h.count
           (h.sum /. float_of_int (max 1 h.count))
           (if h.count = 0 then 0.0 else Qhist.stddev h)
           h.minv h.maxv))
    (Qhist.all ());
  Buffer.add_string b (rule ^ "\n");
  Buffer.contents b
