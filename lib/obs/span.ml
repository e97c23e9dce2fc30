(* Hierarchical timed spans.

   [with_ ~name f] is free (one sink load + pointer compare) when the
   null sink is active; otherwise it times [f], captures the counter
   and GC/allocation deltas accumulated inside it, and hands a span
   record to the sink when [f] returns or raises. *)

(* Nesting depth is per-domain: concurrent spans in different domains
   each track their own stack without synchronization, and a span on a
   worker lane is a root of its own. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

(* A copy of the calling domain's registry slots, taken without the
   lock: only this domain writes them.  Diffing these rather than the
   merged totals keeps a span to its own domain's work, so a
   concurrent worker's charges land in the worker's spans only. *)
let own_slots () = Array.copy (Domain.DLS.get Registry.key).Registry.slots

let with_ ~name f =
  let s = Sink.current () in
  if s == Sink.null then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let gc0 = Prof.take () in
    let start = Clock.now () in
    let snap = own_slots () in
    Fun.protect
      ~finally:(fun () ->
        (* GC delta first: the counter-list allocations below would
           otherwise be charged to the span being closed. *)
        let prof = Some (Prof.since gc0) in
        let dur = Clock.now () -. start in
        let now = own_slots () in
        let counters =
          List.map (fun (c, n) -> (Metrics.name c, n)) (Metrics.diff snap now)
        in
        let cost =
          List.map (fun (c, n) -> (Cost.name c, n)) (Cost.diff snap now)
        in
        depth := d;
        s.Sink.on_span { Sink.name; depth = d; start; dur; counters; cost; prof })
      f
  end

let event ?(detail = "") name =
  let s = Sink.current () in
  if s != Sink.null then
    s.Sink.on_event
      { Sink.name; depth = !(Domain.DLS.get depth_key);
        time = Clock.now (); detail }

let active () = Sink.current () != Sink.null
