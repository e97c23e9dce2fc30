(** The one per-domain store behind {!Metrics} and {!Cost}.

    Each domain owns one {!store}, held in a [Domain.DLS] slot: a flat
    int array with the 10 {!Metrics} event slots followed by the 12
    {!Cost} slots.  A write touches only the calling domain's store —
    one atomic-flag load, one DLS fetch, plain word-sized stores, no
    lock.  Readers merge every store ever handed out (stores outlive
    their domain) under {!mu}.  After [Domain.join] the merged totals
    are exact; while other domains still run, a read observes some
    interleaving of word-sized stores, never a torn value.

    One flag, {!enabled}, gates every write (switched by
    {!Metrics.set_enabled}); one {!reset} zeroes everything.  The two
    modules above are views: they own their enums, names and
    rendering, and read and write through here. *)

val cost_base : int
(** Index of the first {!Cost} slot (the {!Metrics} slots start at 0). *)

type store = private {
  slots : int array;  (** event then cost slots, written by the owner only *)
}

val mu : Mutex.t
(** Guards the store list (and {!Metrics}' gauge table). *)

val key : store Domain.DLS.key
(** The calling domain's store, registered on first use.  Hot paths
    read it directly so a tick stays one DLS fetch. *)

val enabled : bool Atomic.t
(** The one recording switch; every write checks it. *)

type snapshot = int array
(** Slot values at a point in time. *)

val snapshot : unit -> snapshot
(** Merged slot totals (one locked pass over every store). *)

val deltas : ('c -> int) -> 'c list -> snapshot -> snapshot -> ('c * int) list
(** [deltas slot all snap now]: nonzero [now - snap] per counter in
    [all] order, [slot] mapping a counter to its slot. *)

val reset : unit -> unit
(** Zero every slot of every store. *)
