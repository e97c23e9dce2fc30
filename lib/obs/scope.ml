(* Ambient per-request telemetry scopes.

   A scope is the request-grade sibling of [Span]: it brackets one
   unit of work and captures the Metrics counter, Cost counter and
   wall-time deltas that accumulated inside it.  The crucial
   difference is *which* deltas: a span diffs merged process-wide
   snapshots (cheap to reason about, but concurrent domains smear into
   each other's spans), while a scope diffs the calling domain's own
   slots ([Registry.local]) — no lock, no merge, and exact
   under concurrency, because a domain's store is written by that
   domain alone.  Two requests running
   on different [Vmor.Par] pool lanes therefore never see each other's
   counts, and the per-scope deltas sum to the process-wide delta.

   Scopes always run (they are how the service loop will meter
   requests), unlike spans which are free under the null sink: closing
   a scope feeds its duration into the "scope.<name>" [Qhist]
   latency histogram (unless recording is disabled), and additionally
   emits a "scope" record when a sink is active.  Nesting depth is per-domain, like [Span]'s.

   Composition with deadlines is by nesting, not coupling: wrap the
   scope body in [Robust.Budget.with_budget] (or vice versa) for
   per-request deadlines — [Obs] sits below [Robust] in the library
   graph, so the scope layer itself stays budget-agnostic. *)

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

type t = {
  name : string;
  depth : int;
  start : float;
  dur : float;
  counters : (Metrics.counter * int) list;
  cost : (Cost.counter * int) list;
}

let close ~name ~depth ~start snap =
  let now = Registry.local () in
  let counters = Metrics.diff snap now in
  let cost = Cost.diff snap now in
  let dur = Clock.now () -. start in
  Qhist.observe ("scope." ^ name) dur;
  let s = Sink.current () in
  if s != Sink.null then
    s.Sink.on_scope
      {
        Sink.name;
        depth;
        start;
        dur;
        counters = List.map (fun (c, n) -> (Metrics.name c, n)) counters;
        cost = List.map (fun (c, n) -> (Cost.name c, n)) cost;
        prof = None;
      };
  { name; depth; start; dur; counters; cost }

let with_result ~name f =
  let depth = Domain.DLS.get depth_key in
  let d = !depth in
  depth := d + 1;
  let start = Clock.now () in
  let snap = Array.copy (Registry.local ()) in
  match f () with
  | v ->
    depth := d;
    (v, close ~name ~depth:d ~start snap)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    depth := d;
    ignore (close ~name ~depth:d ~start snap);
    Printexc.raise_with_backtrace e bt

let with_ ~name f = fst (with_result ~name f)

let depth () = !(Domain.DLS.get depth_key)
