(* The one per-domain store behind Metrics, Cost and Qhist.

   Each domain owns one [store]: a flat int array (the Metrics event
   slots followed by the Cost slots) and a (name -> hist) table, held
   in a [Domain.DLS] slot.  Writers touch only their own domain's
   store, so a counter tick is one atomic-flag load, one DLS fetch and
   plain word-sized stores — no lock, no contention.  Readers merge
   every registered store under [mu]; after [Domain.join] the merge is
   exact because the child's stores happen-before the join.  While
   other domains are still running a read observes some interleaving
   of word-sized stores, never a torn value. *)

let cost_base = 11
let n_slots = cost_base + 12

(* Mixed int/float record: the float fields are boxed, so every store
   is a single word-sized write, like the slot arrays. *)
type hist = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable minv : float;
  mutable maxv : float;
}

type store = { slots : int array; hists : (string, hist) Hashtbl.t }

let mu = Mutex.create ()

(* Every store ever handed out.  Stores outlive their domain so joined
   children keep contributing to the merge. *)
let stores : store list ref = ref [] [@@vmor.sync "guarded by mu"]

let key =
  Domain.DLS.new_key (fun () ->
      let s = { slots = Array.make n_slots 0; hists = Hashtbl.create 16 } in
      Mutex.protect mu (fun () -> stores := s :: !stores);
      s)

let enabled = Atomic.make true

let fresh n =
  { buckets = Array.make n 0; count = 0; sum = 0.0; sumsq = 0.0;
    minv = Float.infinity; maxv = Float.neg_infinity }

let observe ~n_buckets k i v =
  if Atomic.get enabled then begin
    let tbl = (Domain.DLS.get key).hists in
    let h =
      match Hashtbl.find_opt tbl k with
      | Some h -> h
      | None ->
        let h = fresh n_buckets in
        (* Insertion may resize the table; exclude concurrent mergers.
           Observations on existing names stay lock-free. *)
        Mutex.protect mu (fun () -> Hashtbl.add tbl k h);
        h
    in
    h.buckets.(i) <- h.buckets.(i) + 1;
    h.count <- h.count + 1;
    h.sum <- h.sum +. v;
    h.sumsq <- h.sumsq +. (v *. v);
    if v < h.minv then h.minv <- v;
    if v > h.maxv then h.maxv <- v
  end

let merge_into acc h =
  Array.iteri (fun i c -> acc.buckets.(i) <- acc.buckets.(i) + c) h.buckets;
  acc.count <- acc.count + h.count;
  acc.sum <- acc.sum +. h.sum;
  acc.sumsq <- acc.sumsq +. h.sumsq;
  if h.minv < acc.minv then acc.minv <- h.minv;
  if h.maxv > acc.maxv then acc.maxv <- h.maxv

let hists () =
  Mutex.protect mu (fun () ->
      let accs : (string, hist) Hashtbl.t = Hashtbl.create 16 in
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun k h ->
              let acc =
                match Hashtbl.find_opt accs k with
                | Some acc -> acc
                | None ->
                  let acc = fresh (Array.length h.buckets) in
                  Hashtbl.add accs k acc;
                  acc
              in
              merge_into acc h)
            s.hists)
        !stores;
      Hashtbl.fold (fun k acc l -> (k, acc) :: l) accs [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

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

(* Histogram names stay registered; only their accumulators zero. *)
let reset () =
  Mutex.protect mu (fun () ->
      List.iter
        (fun s ->
          Array.fill s.slots 0 n_slots 0;
          Hashtbl.iter
            (fun _ h ->
              Array.fill h.buckets 0 (Array.length h.buckets) 0;
              h.count <- 0;
              h.sum <- 0.0;
              h.sumsq <- 0.0;
              h.minv <- Float.infinity;
              h.maxv <- Float.neg_infinity)
            s.hists)
        !stores)
