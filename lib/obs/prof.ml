(* GC/allocation telemetry for spans.

   This module is the repo's only reader of the OCaml GC counters: the
   raw-gc lint rule forbids [Gc.stat] / [Gc.quick_stat] /
   [Gc.counters] / [Gc.minor_words] everywhere outside lib/obs,
   mirroring what raw-clock does for the wall clock.  [Span.with_] snapshots on entry and computes the delta
   on close — but only when a sink is installed, so the null-sink fast
   path never touches the GC.  [Gc.quick_stat] reads counters without
   walking the heap, so a capture costs one small record allocation. *)

type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
  top_heap_words : int;
}

(* On OCaml 5.x the word counters in [Gc.quick_stat] are only
   refreshed at collection boundaries, so a span that triggers no
   minor GC would read zero deltas.  [Gc.minor_words] samples the
   allocation pointer directly, and [Gc.counters] accounts direct
   major-heap allocations (e.g. large arrays) eagerly, so words come
   from those; collection counts and the heap levels — which only
   move at collection boundaries anyway — come from the quick stat. *)
let take () =
  let minor_words = Gc.minor_words () in
  let _, promoted_words, major_words = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    minor_words;
    promoted_words;
    major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
  }

(* Cumulative counters become deltas; [heap_words] / [top_heap_words]
   keep the at-close absolutes (a high-water mark has no meaningful
   difference, and the live-heap size is a level, not a flow). *)
let since (s0 : t) =
  let s1 = take () in
  {
    minor_words = s1.minor_words -. s0.minor_words;
    promoted_words = s1.promoted_words -. s0.promoted_words;
    major_words = s1.major_words -. s0.major_words;
    minor_collections = s1.minor_collections - s0.minor_collections;
    major_collections = s1.major_collections - s0.major_collections;
    heap_words = s1.heap_words;
    top_heap_words = s1.top_heap_words;
  }

(* Words freshly allocated: minor + major, minus the promoted words
   that would otherwise be counted in both. *)
let alloc_words t = t.minor_words +. t.major_words -. t.promoted_words

(* Stable field names used by every rendering (JSONL [prof.*] keys,
   Chrome-trace args, the bench gc block). *)
let fields t =
  [
    ("minor_words", t.minor_words);
    ("promoted_words", t.promoted_words);
    ("major_words", t.major_words);
    ("minor_collections", float_of_int t.minor_collections);
    ("major_collections", float_of_int t.major_collections);
    ("heap_words", float_of_int t.heap_words);
    ("top_heap_words", float_of_int t.top_heap_words);
  ]

let of_fields l =
  match List.assoc_opt "minor_words" l with
  | None -> None
  | Some _ ->
    let f k = Option.value ~default:0.0 (List.assoc_opt k l) in
    let i k = int_of_float (f k) in
    Some
      {
        minor_words = f "minor_words";
        promoted_words = f "promoted_words";
        major_words = f "major_words";
        minor_collections = i "minor_collections";
        major_collections = i "major_collections";
        heap_words = i "heap_words";
        top_heap_words = i "top_heap_words";
      }
