(** GC/allocation telemetry for spans.

    The only module in the repo allowed to read the OCaml GC counters
    (the [raw-gc] lint rule rejects [Gc.stat] / [Gc.quick_stat] /
    [Gc.counters] outside lib/obs).  {!Span.with_} snapshots on entry
    and attaches the delta to the finished span record, so traced
    spans report where allocation pressure comes from; the null-sink
    fast path never reaches this module. *)

type t = {
  minor_words : float;  (** words allocated on the minor heap *)
  promoted_words : float;  (** words promoted minor -> major *)
  major_words : float;  (** words allocated on the major heap,
                            including promotions *)
  minor_collections : int;  (** minor GC cycles *)
  major_collections : int;  (** major GC cycles completed *)
  heap_words : int;  (** major heap size — absolute at capture, not
                         a delta *)
  top_heap_words : int;  (** major heap high-water mark — absolute *)
}
(** A GC snapshot, or (from {!since}) a delta of the cumulative fields
    with at-close absolutes for the two heap-size fields. *)

val take : unit -> t
(** Current counters via [Gc.quick_stat] (no heap walk; one small
    record allocation). *)

val since : t -> t
(** [since s0] is the delta of the cumulative fields accumulated after
    [s0] was taken; [heap_words] and [top_heap_words] are the current
    absolutes. *)

val alloc_words : t -> float
(** Freshly allocated words in a delta: minor + major - promoted
    (promoted words appear in both minor and major counts). *)

val fields : t -> (string * float) list
(** Stable field names used by every rendering ([prof.*] JSONL keys,
    Chrome-trace args, the bench gc block), in a fixed order. *)

val of_fields : (string * float) list -> t option
(** Inverse of {!fields}; [None] when no [minor_words] key is present
    (a record that predates prof capture).  Missing fields default to
    zero. *)
