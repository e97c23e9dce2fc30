(* Pluggable trace sinks.

   A sink receives finished span records and point events.  The null
   sink is the default and is compared physically ([==]) on the hot
   path, so a disabled tracer costs one load and one pointer compare
   per span.  Environment knobs:

     VMOR_TRACE=<file.jsonl>  install a JSONL trace sink at startup
     VMOR_METRICS=1|stderr    print the metrics table to stderr at exit
                              (also true|on|yes; any other value is off)

   Explicit [set] (CLI flags, tests) overrides the environment. *)

type span_record = {
  name : string;
  depth : int;
  start : float;
  dur : float;
  counters : (string * int) list;
  cost : (string * int) list;
  prof : Prof.t option;
}

type event_record = {
  name : string;
  depth : int;
  time : float;
  detail : string;
}

type t = {
  on_span : span_record -> unit;
  on_event : event_record -> unit;
  flush : unit -> unit;
}

let null = { on_span = ignore; on_event = ignore; flush = ignore }

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)

let json_escape = Json.escape

let record_to_json (r : span_record) =
  let counters =
    r.counters
    |> List.map (fun (k, v) -> Printf.sprintf "\"%s\":%d" (json_escape k) v)
    |> String.concat ","
  in
  (* GC telemetry rides along as flat prof.* members, so readers that
     predate prof capture keep parsing the record unchanged. *)
  let prof =
    match r.prof with
    | None -> ""
    | Some p ->
      Prof.fields p
      |> List.map (fun (k, v) ->
             Printf.sprintf ",\"prof.%s\":%s" k (Json.float_string v))
      |> String.concat ""
  in
  (* Cost deltas ride the same way as flat cost.* members: absent in
     old traces, ignored by readers that predate the cost layer. *)
  let cost =
    r.cost
    |> List.map (fun (k, v) ->
           Printf.sprintf ",\"cost.%s\":%d" (json_escape k) v)
    |> String.concat ""
  in
  Printf.sprintf
    "{\"type\":\"span\",\"name\":\"%s\",\"depth\":%d,\"start\":%.6f,\"dur\":%.6f,\"counters\":{%s}%s%s}"
    (json_escape r.name) r.depth r.start r.dur counters prof cost

let event_to_json (r : event_record) =
  Printf.sprintf
    "{\"type\":\"event\",\"name\":\"%s\",\"depth\":%d,\"time\":%.6f,\"detail\":\"%s\"}"
    (json_escape r.name) r.depth r.time (json_escape r.detail)

let jsonl oc =
  {
    on_span = (fun r -> output_string oc (record_to_json r ^ "\n"));
    on_event = (fun r -> output_string oc (event_to_json r ^ "\n"));
    flush = (fun () -> flush oc);
  }

(* Flushed, never closed, at exit: a sink installed at run time
   registers this hook after earlier ones (the Par pool's shutdown),
   so it runs before them, and their last events still need the
   channel. The runtime's final flush of every channel writes those. *)
let jsonl_file path =
  let oc = open_out path in
  at_exit (fun () -> flush oc);
  jsonl oc

(* ------------------------------------------------------------------ *)
(* In-memory capture (tests).                                         *)

type captured = { spans : span_record list; events : event_record list }

let memory () =
  let spans = ref [] and events = ref [] in
  let sink =
    {
      on_span = (fun r -> spans := r :: !spans);
      on_event = (fun r -> events := r :: !events);
      flush = ignore;
    }
  in
  (sink, fun () -> { spans = List.rev !spans; events = List.rev !events })

(* ------------------------------------------------------------------ *)
(* Current sink + environment initialization.                         *)

let sink = Atomic.make null

(* Environment knobs are read eagerly at module init — before any
   domain can be spawned — so the install itself needs no lock and
   the hot-path read is a single atomic load. *)
let () =
  (match Sys.getenv_opt "VMOR_TRACE" with
  | Some path when path <> "" -> Atomic.set sink (jsonl_file path)
  | _ -> ());
  match Option.map String.lowercase_ascii (Sys.getenv_opt "VMOR_METRICS") with
  | Some ("1" | "true" | "on" | "yes" | "stderr") ->
    at_exit (fun () -> prerr_string (Metrics.render_table ()))
  | Some _ | None -> ()

let current () = Atomic.get sink

let set s = (Atomic.exchange sink s).flush ()

let is_active () = current () != null
