(* The sans-IO engine (Engine) against its two references: the
   hand-written Algorithm 1 loop below and Inference.run (now a driver
   over the engine, but pinned here so a regression in either shows up as
   a three-way disagreement).

   The differential property: for random instances, random goals and
   every strategy, driving the engine by hand with honest labels yields
   exactly the question sequence, predicate, interaction count and halt
   flag of Inference.run — plus units for the budget, value semantics and
   the forced-pending resume path. *)

open Fixtures
module Bits = Jqi_util.Bits
module Engine = Jqi_core.Engine
module State = Jqi_core.State
module Sample = Jqi_core.Sample
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference

let honest_label goal signature =
  if Bits.subset goal signature then Sample.Positive else Sample.Negative

(* Drive an engine to completion with honest labels. *)
let drive ?max_interactions ?state ?pending universe strategy ~goal =
  let rec go engine =
    match Engine.pending engine with
    | Some q -> go (Engine.answer engine (honest_label goal q.Engine.signature))
    | None -> engine
  in
  go (Engine.create ?max_interactions ?state ?pending universe strategy)

(* The executable transcription of Algorithm 1 with the budget checked
   before the strategy — the semantics Inference.run always had. *)
let reference_run ?max_interactions universe strategy ~goal =
  let st = State.create universe in
  let steps = ref [] in
  let rec loop n =
    let in_budget =
      match max_interactions with Some m -> n < m | None -> true
    in
    if not in_budget then (n, false)
    else
      match Strategy.choose strategy st with
      | None -> (n, true)
      | Some c ->
          let label =
            honest_label goal (Jqi_core.Universe.signature universe c)
          in
          steps := (c, label) :: !steps;
          State.label st c label;
          loop (n + 1)
  in
  let n, halted = loop 0 in
  (List.rev !steps, State.inferred st, n, halted)

let step_testable = Alcotest.(list (pair int label_testable))

let check_agreement ?max_interactions name universe strategy_name ~goal =
  (* Stateful strategies (rnd, igs) carry a PRNG, so each of the three
     runs needs its own instance built from the same seed. *)
  let fresh () =
    match Strategy.of_name ~seed:7 strategy_name with
    | Some s -> s
    | None -> Alcotest.fail ("unknown strategy " ^ strategy_name)
  in
  let outcome =
    Engine.result (drive ?max_interactions universe (fresh ()) ~goal)
  in
  let run =
    match max_interactions with
    | Some m ->
        Inference.run ~max_interactions:m universe (fresh ())
          (Oracle.honest ~goal)
    | None -> Inference.run universe (fresh ()) (Oracle.honest ~goal)
  in
  let ref_steps, ref_pred, ref_n, ref_halted =
    reference_run ?max_interactions universe (fresh ()) ~goal
  in
  Alcotest.check step_testable (name ^ ": engine = run steps")
    run.Inference.steps outcome.Engine.steps;
  Alcotest.check step_testable (name ^ ": engine = reference steps") ref_steps
    outcome.Engine.steps;
  Alcotest.check bits_testable (name ^ ": engine = run predicate")
    run.Inference.predicate outcome.Engine.predicate;
  Alcotest.check bits_testable (name ^ ": engine = reference predicate")
    ref_pred outcome.Engine.predicate;
  Alcotest.(check int)
    (name ^ ": interactions") run.Inference.n_interactions
    outcome.Engine.n_interactions;
  Alcotest.(check int) (name ^ ": reference interactions") ref_n
    outcome.Engine.n_interactions;
  Alcotest.(check bool) (name ^ ": halted") run.Inference.halted
    outcome.Engine.halted;
  Alcotest.(check bool) (name ^ ": reference halted") ref_halted
    outcome.Engine.halted

let all_strategy_names = [ "bu"; "td"; "l1s"; "l2s"; "rnd"; "igs"; "td+l2s" ]

let test_d0_differential () =
  List.iter
    (fun name ->
      check_agreement ("D0 " ^ name) universe0 name ~goal:(pred0 [ (0, 2) ]))
    all_strategy_names

let test_d0_differential_budgets () =
  List.iter
    (fun budget ->
      List.iter
        (fun name ->
          check_agreement ~max_interactions:budget
            (Printf.sprintf "D0 %s budget %d" name budget)
            universe0 name ~goal:(pred0 [ (0, 0); (1, 2) ]))
        all_strategy_names)
    [ 0; 1; 2; 100 ]

(* ----------------------- random instances ------------------------- *)

let gen_instance =
  QCheck.Gen.(
    let cell = map (fun i -> Jqi_relational.Value.Int i) (int_bound 2) in
    let* ra = int_range 1 3 and* pa = int_range 1 3 in
    let row arity = map Jqi_relational.Tuple.of_list (list_repeat arity cell) in
    let* rrows = list_size (int_range 1 4) (row ra)
    and* prows = list_size (int_range 1 4) (row pa)
    and* goal_ix = int_bound 1000
    and* strategy_ix = int_bound (List.length all_strategy_names - 1)
    and* budget = oneof [ return None; map Option.some (int_bound 4) ] in
    return (ra, pa, rrows, prows, goal_ix, strategy_ix, budget))

let build_instance (ra, pa, rrows, prows) =
  let mk name prefix arity rows =
    Jqi_relational.Relation.of_list ~name
      ~schema:
        (Jqi_relational.Schema.of_names ~ty:Jqi_relational.Value.TInt
           (List.init arity (fun i -> Printf.sprintf "%s%d" prefix (i + 1))))
      rows
  in
  Jqi_core.Universe.build [ mk "R" "A" ra rrows; mk "P" "B" pa prows ]

let arb_instance =
  QCheck.make gen_instance
    ~print:(fun (ra, pa, rrows, prows, goal_ix, strategy_ix, budget) ->
      Printf.sprintf "R:%dx%d P:%dx%d goal#%d %s budget:%s [%s | %s]"
        (List.length rrows) ra (List.length prows) pa goal_ix
        (List.nth all_strategy_names strategy_ix)
        (match budget with Some b -> string_of_int b | None -> "none")
        (String.concat ";"
           (List.map Jqi_relational.Tuple.to_string rrows))
        (String.concat ";"
           (List.map Jqi_relational.Tuple.to_string prows)))

let qcheck_engine_differential =
  QCheck.Test.make
    ~name:"engine = Inference.run = Algorithm 1 on random instances"
    ~count:100 arb_instance
    (fun (ra, pa, rrows, prows, goal_ix, strategy_ix, budget) ->
      let universe = build_instance (ra, pa, rrows, prows) in
      let omega = Jqi_core.Universe.omega universe in
      let goals =
        Jqi_core.Omega.empty omega :: Jqi_core.Omega.full omega
        :: Jqi_core.Universe.signatures universe
      in
      let goal = List.nth goals (goal_ix mod List.length goals) in
      let name = List.nth all_strategy_names strategy_ix in
      check_agreement
        ?max_interactions:budget
        (Printf.sprintf "random %s" name)
        universe name ~goal;
      true)

(* --------------------------- unit tests --------------------------- *)

let test_value_semantics () =
  (* Answering never mutates the answered engine: both labels can be
     explored from the same point, and the original still presents the
     same question afterwards. *)
  let e0 = Engine.create universe0 Strategy.bu in
  let q0 =
    match Engine.pending e0 with
    | Some q -> q
    | None -> Alcotest.fail "fresh engine has no question"
  in
  let pos = Engine.answer e0 Sample.Positive in
  let neg = Engine.answer e0 Sample.Negative in
  (match Engine.pending e0 with
  | Some q ->
      Alcotest.(check int) "original question unchanged" q0.Engine.class_id
        q.Engine.class_id
  | None -> Alcotest.fail "original engine lost its question");
  Alcotest.(check int) "original unasked" 0 (Engine.n_asked e0);
  Alcotest.(check int) "successors asked once" 1 (Engine.n_asked pos);
  Alcotest.(check int) "successors asked once" 1 (Engine.n_asked neg);
  let r_pos = Engine.result pos and r_neg = Engine.result neg in
  Alcotest.(check bool) "branches diverge" false
    (Bits.equal r_pos.Engine.predicate r_neg.Engine.predicate
    && State.informative_classes r_pos.Engine.state
       = State.informative_classes r_neg.Engine.state)

let test_budget_zero () =
  let e = Engine.create ~max_interactions:0 universe0 Strategy.bu in
  Alcotest.(check bool) "no question" true (Engine.pending e = None);
  Alcotest.(check bool) "finished" true (Engine.finished e);
  Alcotest.(check bool) "not halted (budget, not Γ)" false (Engine.halted e);
  Alcotest.(check bool) "answer raises" true
    (try
       ignore (Engine.answer e Sample.Positive);
       false
     with Invalid_argument _ -> true)

let test_budget_excludes_resumed_interactions () =
  (* A resumed state's prior interactions count in the outcome's
     n_interactions but not against the new engine's budget. *)
  let st = State.create universe0 in
  State.label st (class0 (2, 2)) Sample.Positive;
  State.label st (class0 (1, 3)) Sample.Negative;
  let e = Engine.create ~max_interactions:1 ~state:st universe0 Strategy.bu in
  Alcotest.(check bool) "one question allowed" true (Engine.pending e <> None);
  let e =
    match Engine.pending e with
    | Some q ->
        Engine.answer e
          (honest_label (pred0 [ (0, 0); (1, 2) ]) q.Engine.signature)
    | None -> Alcotest.fail "expected a question"
  in
  Alcotest.(check bool) "budget now exhausted" true (Engine.finished e);
  let outcome = Engine.result e in
  Alcotest.(check int) "prior interactions counted" 3
    outcome.Engine.n_interactions;
  Alcotest.(check int) "but only one asked here" 1 (Engine.n_asked e)

let test_resume_does_not_mutate_state () =
  let st = State.create universe0 in
  State.label st (class0 (2, 2)) Sample.Positive;
  let before = State.informative_classes st in
  let e = Engine.create ~state:st universe0 Strategy.bu in
  (match Engine.pending e with
  | Some q -> ignore (Engine.answer e (honest_label (pred0 []) q.Engine.signature))
  | None -> ());
  Alcotest.(check (list int)) "caller's state untouched" before
    (State.informative_classes st)

let test_forced_pending () =
  (* A forced pending class is re-presented verbatim when informative... *)
  let cls = class0 (1, 3) in
  let e = Engine.create ~pending:cls universe0 Strategy.bu in
  (match Engine.pending e with
  | Some q -> Alcotest.(check int) "forced class presented" cls q.Engine.class_id
  | None -> Alcotest.fail "expected the forced question");
  (* ... and ignored when it is not (here: already certain after ∅⁺ made
     everything certain-negative except supersets). *)
  let st = State.create universe0 in
  State.label st (class0 (3, 1)) Sample.Positive;
  let e2 = Engine.create ~state:st ~pending:(class0 (1, 3)) universe0 Strategy.bu in
  Alcotest.(check bool) "stale pending dropped" true (Engine.pending e2 = None)

let test_outcome_state_is_a_copy () =
  let e0 = Engine.create universe0 Strategy.bu in
  let e =
    match Engine.pending e0 with
    | Some q ->
        Engine.answer e0 (honest_label (pred0 [ (0, 2) ]) q.Engine.signature)
    | None -> Alcotest.fail "expected a first question"
  in
  let o1 = Engine.result e in
  (match Engine.pending e with
  | Some q -> State.label o1.Engine.state q.Engine.class_id Sample.Positive
  | None -> Alcotest.fail "expected a second question");
  Alcotest.(check int) "mutated snapshot" 2 (State.n_interactions o1.Engine.state);
  let o2 = Engine.result e in
  Alcotest.(check int) "mutating one outcome does not leak into the next" 1
    (State.n_interactions o2.Engine.state)

let suite =
  [
    Alcotest.test_case "D0 differential, all strategies" `Quick
      test_d0_differential;
    Alcotest.test_case "D0 differential under budgets" `Quick
      test_d0_differential_budgets;
    QCheck_alcotest.to_alcotest qcheck_engine_differential;
    Alcotest.test_case "engines are values" `Quick test_value_semantics;
    Alcotest.test_case "budget 0 asks nothing" `Quick test_budget_zero;
    Alcotest.test_case "budget ignores resumed interactions" `Quick
      test_budget_excludes_resumed_interactions;
    Alcotest.test_case "resume copies the state" `Quick
      test_resume_does_not_mutate_state;
    Alcotest.test_case "forced pending" `Quick test_forced_pending;
    Alcotest.test_case "outcome state is a copy" `Quick
      test_outcome_state_is_a_copy;
  ]
