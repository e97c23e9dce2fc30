(* Retry/fallback policy engine.

   One small record of knobs (bounded attempts, nudge geometry,
   Tikhonov strength) plus two engines: the deterministic shift-nudge
   sequence for near-singular shifted solves, and the walk over those
   candidates ([Atmor.reduce] runs it per order level,
   [Autoselect.reduce] for its H1 probe). *)

type t = {
  max_retries : int;  (* extra attempts after the first *)
  nudge_eps : float;  (* relative size of the first shift nudge *)
  nudge_base : float;  (* absolute scale used when s0 = 0 *)
  tikhonov_mu : float;  (* relative Tikhonov regularization *)
}

let default () =
  {
    max_retries = 4;
    nudge_eps = 1e-4;
    nudge_base = 1.0;
    tikhonov_mu = 1e-8;
  }

let none = { max_retries = 0; nudge_eps = 0.0; nudge_base = 1.0; tikhonov_mu = 0.0 }

(* s0, then s0 (1 + eps 2^j) — geometric growth so one sequence covers
   both "exactly on a pole" (any nudge works) and "in a cluster of
   poles" (later nudges escape). A zero s0 cannot be nudged
   multiplicatively, so it steps away in absolute units of
   [nudge_base]. *)
let nudges t s0 =
  let cand j =
    if j = 0 then s0
    else begin
      let step = t.nudge_eps *. float_of_int (1 lsl (j - 1)) in
      if Contract.nonzero s0 then s0 *. (1.0 +. step)
      else t.nudge_base *. step
    end
  in
  List.init (1 + max 0 t.max_retries) cand

type 'a outcome = Clean of 'a | Recovered of 'a * Error.t | Failed of Error.t

(* A value is clean when no recovery event fired while producing it;
   otherwise it is recovered, carrying the newest event's error. *)
let outcome_of_events v = function
  | [] -> Clean v
  | events ->
    Recovered (v, (List.nth events (List.length events - 1)).Report.error)

(* Try the candidates in order. The first clean one wins at once; a
   recovered one is only kept (the first such) and accepted, with
   "accept-fallback", once no candidate is clean. Each failure records
   "nudge:<next>" while a next candidate remains. Exceptions go
   through [classify] into [Failed]; foreign ones propagate. *)
let walk_nudges ~recorder ~(classify : exn -> Error.t option)
    (cands : (float * (unit -> 'a outcome)) list) :
    (float * 'a, int * Error.t option) result =
  let rec go attempts last usable = function
    | [] -> (
      match usable with
      | Some (s0, v, err) ->
        Report.record recorder ~action:"accept-fallback" err;
        Ok (s0, v)
      | None -> Result.Error (attempts, last))
    | (s0, f) :: rest -> (
      let outcome =
        try f ()
        with exn -> (
          match classify exn with None -> raise exn | Some err -> Failed err)
      in
      match outcome with
      | Clean v -> Ok (s0, v)
      | Recovered (v, err) ->
        let usable =
          match usable with None -> Some (s0, v, err) | Some _ -> usable
        in
        go (attempts + 1) last usable rest
      | Failed err ->
        (match rest with
        | (next, _) :: _ ->
          Report.record recorder ~action:(Printf.sprintf "nudge:%g" next) err
        | [] -> ());
        go (attempts + 1) (Some err) usable rest)
  in
  go 0 None None cands
