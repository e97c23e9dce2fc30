(* Deterministic data parallelism on a shared domain pool.

   Policy layer over [Pool]: the ambient lane count, the lazy shared
   pool, serial fallbacks (lane count 1, tiny ranges, nested regions)
   and the determinism contract — contiguous tiles preserve each
   element's floating-point accumulation order, index slots make merge
   order canonical, and the lowest lane/item exception is re-raised so
   failures match a serial left-to-right run.  See DESIGN.md §14. *)

let max_domains = 64

(* Ambient lane count (1 = serial), the shared pool, and the
   one-region-at-a-time flag.  All atomics: reads are wait-free on the
   serial fast path, and nested regions degrade to serial instead of
   deadlocking on the pool. *)
let ambient : int Atomic.t = Atomic.make 1
let the_pool : Pool.t option Atomic.t = Atomic.make None
let busy : bool Atomic.t = Atomic.make false

let domains () = Atomic.get ambient
let recommended_domains () = Domain.recommended_domain_count ()

let shutdown_pool () =
  match Atomic.exchange the_pool None with
  | None -> ()
  | Some p -> Pool.shutdown p

let () = at_exit shutdown_pool

let with_domains opt f =
  match opt with
  | None -> f ()
  | Some n ->
      let n = if n < 1 then 1 else if n > max_domains then max_domains else n in
      let prev = Atomic.get ambient in
      Atomic.set ambient n;
      Fun.protect ~finally:(fun () -> Atomic.set ambient prev) f

(* Grow-only: a region wanting more lanes than the current pool has
   replaces it.  Only reached with [busy] held, so no two regions can
   race the swap, and no job is in flight during [shutdown]. *)
let ensure_pool lanes =
  match Atomic.get the_pool with
  | Some p when Pool.lanes p >= lanes -> p
  | prev ->
      (match prev with Some p -> Pool.shutdown p | None -> ());
      let p = Pool.create ~lanes in
      Atomic.set the_pool (Some p);
      p

(* Run [parallel] over the shared pool, or [serial] when the lane
   count says so or another region is already running (nested
   parallelism runs serial rather than deadlocking). *)
let region ~lanes ~serial ~parallel =
  if lanes <= 1 then serial ()
  else if not (Atomic.compare_and_set busy false true) then serial ()
  else
    Fun.protect
      ~finally:(fun () -> Atomic.set busy false)
      (fun () -> parallel (ensure_pool lanes))

let reraise_lowest slots =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    slots

let default_min_chunk = 1024

let tiles ?(min_chunk = default_min_chunk) ~lo ~hi body =
  let span = hi - lo in
  if span > 0 then begin
    let min_chunk = max 1 min_chunk in
    let lanes = min (domains ()) (span / min_chunk) in
    region ~lanes
      ~serial:(fun () -> body ~lo ~hi)
      ~parallel:(fun p ->
        let lanes = min lanes (Pool.lanes p) in
        let chunk = (span + lanes - 1) / lanes in
        let errs = Array.make lanes None in
        Pool.run p (fun lane ->
            if lane < lanes then begin
              let l = lo + (lane * chunk) in
              let h = min hi (l + chunk) in
              if l < h then
                try body ~lo:l ~hi:h
                with e -> errs.(lane) <- Some (e, Printexc.get_raw_backtrace ())
            end);
        reraise_lowest errs)
  end

let map_array f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let lanes = min (domains ()) n in
    region ~lanes
      ~serial:(fun () -> Array.map f xs)
      ~parallel:(fun p ->
        let out = Array.make n None in
        let errs = Array.make n None in
        let next = Atomic.make 0 in
        let lanes = min lanes (Pool.lanes p) in
        Pool.run p (fun lane ->
            if lane < lanes then begin
              let running = ref true in
              while !running do
                let i = Atomic.fetch_and_add next 1 in
                if i >= n then running := false
                else
                  try out.(i) <- Some (f xs.(i))
                  with e -> errs.(i) <- Some (e, Printexc.get_raw_backtrace ())
              done
            end);
        reraise_lowest errs;
        Array.map Option.get out)
  end

let map_list f xs = Array.to_list (map_array f (Array.of_list xs))
