(* The one per-domain store behind Metrics and Cost.

   Each domain owns one [store]: a flat int array (the Metrics event
   slots followed by the Cost slots), held in a [Domain.DLS] slot.
   Writers touch only their own domain's store, so a counter tick is
   one atomic-flag load, one DLS fetch and plain word-sized stores —
   no lock, no contention.  Readers merge every registered store under
   [mu]; after [Domain.join] the merge is exact because the child's
   stores happen-before the join.  While other domains are still
   running a read observes some interleaving of word-sized stores,
   never a torn value. *)

let cost_base = 10
let n_slots = cost_base + 12

type store = { slots : int array }

let mu = Mutex.create ()

(* Every store ever handed out.  Stores outlive their domain so joined
   children keep contributing to the merge. *)
let stores : store list ref = ref [] [@@vmor.sync "guarded by mu"]

let key =
  Domain.DLS.new_key (fun () ->
      let s = { slots = Array.make n_slots 0 } in
      Mutex.protect mu (fun () -> stores := s :: !stores);
      s)

let enabled = Atomic.make true

type snapshot = int array

let snapshot () =
  Mutex.protect mu (fun () ->
      let out = Array.make n_slots 0 in
      List.iter
        (fun s ->
          for i = 0 to n_slots - 1 do
            out.(i) <- out.(i) + s.slots.(i)
          done)
        !stores;
      out)

let deltas index all (snap : snapshot) (now : snapshot) =
  List.filter_map
    (fun c ->
      let d = now.(index c) - snap.(index c) in
      if d = 0 then None else Some (c, d))
    all

let reset () =
  Mutex.protect mu (fun () ->
      List.iter (fun s -> Array.fill s.slots 0 n_slots 0) !stores)
