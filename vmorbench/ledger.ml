(* The traced run's ledger.  Spans are recorded only here, by the
   benchmark, around its own calls into each layer's public functions;
   no Obs sink is switched on.  Each span carries the Obs.Cost,
   Obs.Metrics and Obs.Prof deltas read at its boundaries, outside the
   timed interval.  Spans stay in memory and are written out when the
   run ends. *)

type span = {
  id : int;
  parent : int;  (* -1 at the root *)
  op : int;
  name : string;
  start : float;
  stop : float;
}

type delta = {
  wall : float;
  cost : (Obs.Cost.counter * int) list;
  counts : (Obs.Metrics.counter * int) list;
  minor_words : float;
}

let spans = ref []
let open_ids = ref []
let next_id = ref 0
let op_id = ref (-1)

(* Sums behind the per-layer metrics.  Only ops of the run's fixed
   prefix add to them, so every count repeats exactly for a seed. *)
let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let recording = ref false

let start_op i ~record =
  op_id := i;
  recording := record

let add k v =
  if !recording then
    Hashtbl.replace sums k (v +. Option.value ~default:0.0 (Hashtbl.find_opt sums k))

let get k = Option.value ~default:0.0 (Hashtbl.find_opt sums k)

(* [get num / get den], 0 when nothing was recorded under [den] *)
let per den num = if get den > 0.0 then get num /. get den else 0.0

let cost d c = float_of_int (Option.value ~default:0 (List.assoc_opt c d.cost))
let count d c = float_of_int (Option.value ~default:0 (List.assoc_opt c d.counts))

(* Run [f] inside a span named [name] and return its result with the
   span's wall time and counter deltas. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let cost0 = Obs.Cost.snapshot () in
  let counts0 = Obs.Metrics.snapshot () in
  let gc0 = Obs.Prof.take () in
  let start = Obs.Clock.now () in
  let close () =
    let stop = Obs.Clock.now () in
    let minor_words = (Obs.Prof.since gc0).Obs.Prof.minor_words in
    open_ids := List.tl !open_ids;
    spans := { id; parent; op = !op_id; name; start; stop } :: !spans;
    {
      wall = stop -. start;
      cost = Obs.Cost.since cost0;
      counts = Obs.Metrics.since counts0;
      minor_words;
    }
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

(* One JSON object per span, in the order the spans opened. *)
let write path =
  let spans = List.sort (fun a b -> compare a.id b.id) !spans in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":\"%s\",\"start\":%s,\"end\":%s}\n"
            s.id s.parent s.op (Obs.Json.escape s.name)
            (Obs.Json.float_string s.start) (Obs.Json.float_string s.stop))
        spans)
