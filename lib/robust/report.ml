(* Machine-readable account of what the recovery layer did.

   A [recorder] accumulates events as policies fire; the finished
   [t] rides along with reduction results (the [degradation] field of
   [Atmor.result]) so callers — and the CLI exit-code logic — can tell
   a clean run from a recovered or degraded one without parsing logs.

   Action strings are structured as "verb" or "verb:detail":
     "fallback:<rung>"   a solve escalated to a lower rung
     "nudge:<s0>"        the expansion point was moved
     "halve-step"        an integrator halved h after a non-finite step
     "degrade:<what>"    a moment stage was dropped (e.g. "degrade:h3")
     "accept-fallback"   a result produced on a fallback rung was kept
     "exhausted"         the final rung also failed *)

type event = { error : Error.t; action : string }

type t = event list

type recorder = { mutable rev_events : event list }

let recorder () = { rev_events = [] }

let record r ~action error =
  r.rev_events <- { error; action } :: r.rev_events;
  (* Bridge every recovery event into the observability layer, so a
     trace of a degraded run tells the whole story in one file. *)
  Obs.Metrics.incr Obs.Metrics.Recovery_event;
  Obs.Span.event "recovery"
    ~detail:(Printf.sprintf "[%s] %s" action (Error.to_string error))

let record_opt r ~action error =
  match r with None -> () | Some r -> record r ~action error

(* Raw list splice for sub-steps run against a private recorder (such as
   Autoselect's expansion-point probes): replaying through [record]
   would re-emit the Obs bridge events.  Splicing children into the
   parent in the order they ran reproduces exactly the newest-first
   layout recording into the parent directly would have built. *)
let splice parent child =
  parent.rev_events <- child.rev_events @ parent.rev_events

let events r = List.rev r.rev_events

let mark r = List.length r.rev_events

let since r m =
  (* events recorded after [mark] returned [m], oldest first *)
  let rec take n l = if n <= 0 then [] else
    match l with [] -> [] | e :: rest -> e :: take (n - 1) rest
  in
  List.rev (take (List.length r.rev_events - m) r.rev_events)

let empty : t = []

let is_empty t = t = []

let count = List.length

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let degraded t =
  List.exists (fun e -> has_prefix ~prefix:"degrade" e.action) t

let event_string e = Printf.sprintf "[%s] %s" e.action (Error.to_string e.error)

let to_string t = String.concat "\n" (List.map event_string t)
