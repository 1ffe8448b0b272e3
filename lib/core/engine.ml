(* Algorithm 1 inverted into a sans-IO state machine.

   The loop of [Inference.run] — choose an informative tuple, obtain a
   label, update the sample, repeat — is re-expressed as a value: [create]
   performs the first strategy choice, [pending] exposes it, [answer]
   applies a label and performs the next choice.  No IO, no callbacks, no
   blocking; the oracle lives entirely outside.

   The state machine owns its [State.t] and never leaks it mutably:
   [answer] labels a copy, so engines are persistent values — answering an
   old engine (or answering the same engine twice with different labels)
   is well-defined.  This is what lets one server process hold thousands
   of interleaved sessions, and what makes lookahead-style what-if
   exploration safe for API users.

   Budget semantics replicate [Inference.run] exactly: the bound is
   checked *before* the strategy runs, so a budget of 0 never calls the
   strategy, and a run that exhausts its budget reports [halted = false]
   even if Γ would also have held. *)

module Bits = Jqi_util.Bits
module Obs = Jqi_obs.Obs

let c_creates = Obs.Counter.make "engine.creates"
let c_answers = Obs.Counter.make "engine.answers"

type question = {
  class_id : int;
  signature : Bits.t;
  rows : Jqi_relational.Tuple.t array option;
      (* one representative tuple per relation, present whenever the
         universe carries its relations *)
}

type t = {
  universe : Universe.t;
  strategy : Strategy.t;
  state : State.t;  (* owned: only ever mutated via a fresh copy *)
  asked : int;  (* answers accepted through this engine *)
  max_interactions : int option;
  pending : int option;
  halted : bool;  (* Γ: the strategy returned None *)
}

type outcome = {
  predicate : Bits.t;
  steps : (int * Sample.label) list;
  n_interactions : int;
  halted : bool;
  state : State.t;
}

let budget_left t =
  match t.max_interactions with None -> true | Some b -> t.asked < b

(* One strategy invocation, under the same span name [Inference.run]
   historically used, so traces keep their shape. *)
let select t =
  if not (budget_left t) then { t with pending = None; halted = false }
  else
    match
      Obs.span "strategy.choose" (fun () -> Strategy.choose t.strategy t.state)
    with
    | Some cls -> { t with pending = Some cls; halted = false }
    | None -> { t with pending = None; halted = true }

let create ?max_interactions ?state ?pending universe strategy =
  Obs.Counter.incr c_creates;
  let state =
    match state with
    | Some st -> State.copy st
    | None -> State.create universe
  in
  let t =
    { universe; strategy; state; asked = 0; max_interactions;
      pending = None; halted = false }
  in
  (* A restored in-flight question takes precedence over a fresh strategy
     choice, provided it is still worth asking and the budget allows it. *)
  match pending with
  | Some cls
    when budget_left t
         && cls >= 0
         && cls < Universe.n_classes universe
         && State.informative state cls ->
      { t with pending = Some cls }
  | Some _ | None -> select t

let question_of t cls =
  {
    class_id = cls;
    signature = Universe.signature t.universe cls;
    rows = Universe.representative t.universe cls;
  }

let pending t = Option.map (question_of t) t.pending

let answer t label =
  match t.pending with
  | None -> invalid_arg "Engine.answer: no question pending"
  | Some cls ->
      Obs.Counter.incr c_answers;
      let state = State.copy t.state in
      State.label state cls label;
      select { t with state; asked = t.asked + 1; pending = None }

type stale_reason =
  | Label_retired of {
      step : int;
      signature : Bits.t;
      label : Sample.label;
    }
  | Label_contradicts of {
      step : int;
      signature : Bits.t;
      label : Sample.label;
    }
  | Question_retired of { signature : Bits.t }

type recertification = Recertified of t | Stale of stale_reason

exception Stale_at of stale_reason

(* Replay the engine's history *by signature* into a fresh state over the
   new universe.  Signatures are the whole semantics — informativeness,
   certainty and selection depend only on T(t) — so a replay that finds
   every labeled signature still present reconstructs an equivalent
   sample.  [State.label] tolerates same-sign certainty, and a history
   that was consistent stays consistent under any universe carrying the
   same signatures, so [Label_contradicts] is defensive; the live stale
   mode is a *retired* signature (its class died under churn). *)
let recertify t new_universe =
  Obs.span "engine.recertify" (fun () ->
      let old_u = t.universe in
      let replay () =
        let state = State.create new_universe in
        List.iteri
          (fun i (cls, lbl) ->
            let signature = Universe.signature old_u cls in
            match Universe.find_class new_universe signature with
            | None ->
                raise
                  (Stale_at
                     (Label_retired { step = i + 1; signature; label = lbl }))
            | Some c -> (
                try State.label state c lbl
                with State.Inconsistent _ ->
                  raise
                    (Stale_at
                       (Label_contradicts
                          { step = i + 1; signature; label = lbl }))))
          (State.history t.state);
        let pending =
          match t.pending with
          | None -> None
          | Some cls -> (
              let signature = Universe.signature old_u cls in
              match Universe.find_class new_universe signature with
              | Some c -> Some c
              | None -> raise (Stale_at (Question_retired { signature })))
        in
        let max_interactions =
          Option.map (fun b -> max 0 (b - t.asked)) t.max_interactions
        in
        Recertified
          (create ?max_interactions ~state ?pending new_universe t.strategy)
      in
      try replay () with Stale_at r -> Stale r)

let finished (t : t) = t.pending = None
let halted (t : t) = t.halted && t.pending = None
let n_asked t = t.asked
let result (t : t) =
  {
    predicate = State.inferred t.state;
    steps = State.history t.state;
    n_interactions = State.n_interactions t.state;
    halted = halted t;
    state = State.copy t.state;
  }
