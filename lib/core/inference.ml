(* The general inference algorithm (Algorithm 1).

   Repeatedly asks the strategy for an informative tuple, queries the
   oracle, and updates the sample, until the halt condition Γ holds (no
   informative tuple left) or an optional interaction budget is exhausted.
   The returned predicate is T(S+), the most specific predicate consistent
   with the user's labels (§3.3). *)

module Bits = Jqi_util.Bits
module Timer = Jqi_util.Timer
module Obs = Jqi_obs.Obs

(* Oracle interactions — the paper's primary cost measure (Figs. 5-7). *)
let c_questions = Obs.Counter.make "oracle.questions"
let c_positive = Obs.Counter.make "oracle.answers_positive"
let c_negative = Obs.Counter.make "oracle.answers_negative"
let c_runs = Obs.Counter.make "inference.runs"

(* Debug tracing: `Logs.Src.set_level Inference.log_src (Some Debug)` turns
   on one line per question. *)
let log_src = Logs.Src.create "jqi.inference" ~doc:"interactive inference loop"

module Log = (val Logs.src_log log_src)

type result = {
  strategy : string;
  predicate : Bits.t;       (* the inferred T(S+) *)
  steps : (int * Sample.label) list;  (* chronological (class, label) *)
  n_interactions : int;
  elapsed : float;          (* wall-clock seconds of the whole loop *)
  halted : bool;            (* Γ reached (vs. budget exhausted) *)
  state : State.t;
}

(* Algorithm 1 as a driver over the sans-IO [Engine]: the engine selects
   questions, this loop supplies the oracle's labels.  The question
   sequence is identical to the historical callback loop — the engine
   performs the same budget check before each strategy invocation — which
   the differential suite in test/test_engine.ml pins. *)
let run ?max_interactions ?state universe strategy oracle =
  let t0 = Timer.now () in
  Obs.Counter.incr c_runs;
  let outcome =
    Obs.span ~attrs:[ ("strategy", Strategy.name strategy) ] "inference.run"
      (fun () ->
        let rec loop engine =
          match Engine.pending engine with
          | None -> engine
          | Some q ->
              let cls = q.Engine.class_id in
              let lbl =
                Obs.span "oracle.label" (fun () ->
                    Oracle.label oracle universe cls)
              in
              Obs.Counter.incr c_questions;
              Obs.Counter.incr
                (match lbl with
                | Sample.Positive -> c_positive
                | Sample.Negative -> c_negative);
              Log.debug (fun m ->
                  m "%s asks class %d %a -> %a" (Strategy.name strategy) cls
                    (Omega.pp_pred (Universe.omega universe))
                    q.Engine.signature Sample.pp_label lbl);
              loop (Engine.answer engine lbl)
        in
        Engine.result
          (loop (Engine.create ?max_interactions ?state universe strategy)))
  in
  let elapsed = Timer.now () -. t0 in
  {
    strategy = Strategy.name strategy;
    predicate = outcome.Engine.predicate;
    steps = outcome.Engine.steps;
    n_interactions = outcome.Engine.n_interactions;
    elapsed;
    halted = outcome.Engine.halted;
    state = outcome.Engine.state;
  }

(* Success criterion of §3.3: the inferred predicate must be equivalent to
   the goal over the instance (indistinguishable by the user). *)
let verified universe ~goal result = Universe.equivalent universe goal result.predicate

let pp omega ppf r =
  Fmt.pf ppf "%s: %d interactions in %a, inferred %a%s" r.strategy
    r.n_interactions Timer.pp_seconds r.elapsed (Omega.pp_pred omega) r.predicate
    (if r.halted then "" else " (budget exhausted)")

(* Human-readable replay of the session: one line per question, with the
   k representative tuples when the universe has backing relations, the
   signature otherwise. *)
let pp_transcript universe ppf r =
  let omega = Universe.omega universe in
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun k (cls, lbl) ->
      let mark = match lbl with Sample.Positive -> "+" | Sample.Negative -> "-" in
      match Universe.representative universe cls with
      | Some tuples ->
          Fmt.pf ppf "%2d. %s %a@," (k + 1) mark
            Fmt.(array ~sep:(any " ⊕ ") Jqi_relational.Tuple.pp)
            tuples
      | None ->
          Fmt.pf ppf "%2d. %s signature %a@," (k + 1) mark (Omega.pp_pred omega)
            (Universe.signature universe cls))
    r.steps;
  Fmt.pf ppf " => %a after %d questions@]" (Omega.pp_pred omega) r.predicate
    r.n_interactions
