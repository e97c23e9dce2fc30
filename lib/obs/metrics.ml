(* Process-wide kernel event counters and gauges.

   Counters live in the first 10 slots of the per-domain [Registry]
   store (DESIGN.md section 8), so an increment is one atomic-flag
   load, one DLS fetch and one bounds-checked store.  [set_enabled] is
   the one switch for every counter, gauge and cost charge: [false]
   makes them all no-ops, the genuinely uninstrumented baseline of the
   overhead benchmark.  Gauges are string-keyed, only touched on cold
   paths, and guarded by the registry's mutex. *)

type counter =
  | Lu_factor
  | Lu_solve
  | Shifted_solve
  | Matvec
  | Deflation_discard
  | Ode_step
  | Ode_rejected
  | Newton_iter
  | Recovery_event
  | Budget_poll

let index = function
  | Lu_factor -> 0
  | Lu_solve -> 1
  | Shifted_solve -> 2
  | Matvec -> 3
  | Deflation_discard -> 4
  | Ode_step -> 5
  | Ode_rejected -> 6
  | Newton_iter -> 7
  | Recovery_event -> 8
  | Budget_poll -> 9

let name = function
  | Lu_factor -> "lu_factor"
  | Lu_solve -> "lu_solve"
  | Shifted_solve -> "shifted_solve"
  | Matvec -> "matvec"
  | Deflation_discard -> "deflation_discard"
  | Ode_step -> "ode_step"
  | Ode_rejected -> "ode_rejected"
  | Newton_iter -> "newton_iter"
  | Recovery_event -> "recovery_event"
  | Budget_poll -> "budget_poll"

let all =
  [ Lu_factor; Lu_solve; Shifted_solve; Matvec; Deflation_discard;
    Ode_step; Ode_rejected; Newton_iter; Recovery_event; Budget_poll ]

let set_enabled b = Atomic.set Registry.enabled b

let incr ?(by = 1) c =
  if Atomic.get Registry.enabled then begin
    let a = (Domain.DLS.get Registry.key).slots in
    let i = index c in
    a.(i) <- a.(i) + by
  end

let get c = (Registry.snapshot ()).(index c)

(* ------------------------------------------------------------------ *)
(* Gauges: last-write-wins named floats.                              *)

let gauge_tbl : (string, float) Hashtbl.t =
  Hashtbl.create 16 [@@vmor.sync "guarded by Registry.mu"]

let set_gauge k v =
  if Atomic.get Registry.enabled then
    Mutex.protect Registry.mu (fun () -> Hashtbl.replace gauge_tbl k v)

let gauges () =
  Mutex.protect Registry.mu (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauge_tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Snapshots and deltas.                                              *)

type snapshot = Registry.snapshot

let snapshot = Registry.snapshot
let diff = Registry.deltas index all
let since snap = diff snap (Registry.snapshot ())

let reset () =
  Registry.reset ();
  Mutex.protect Registry.mu (fun () -> Hashtbl.reset gauge_tbl)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                         *)

let render_table () =
  let now = Registry.snapshot () in
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
  Buffer.add_string b (rule ^ "\n");
  Buffer.contents b
