(* Algorithm 1 end to end: golden runs on the paper's instances, and
   qcheck properties on random instances — every strategy always halts
   and always returns a predicate instance-equivalent to the goal. *)

open Fixtures
module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Sample = Jqi_core.Sample
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference

(* The introduction's scenario: Q1 and Q2 over Flight ⋈ Hotel must be
   recovered exactly (they are distinguishable on this instance). *)
let test_flight_hotel () =
  let universe = Universe.build [ flight; hotel ] in
  let omega = Universe.omega universe in
  let q1 = Omega.of_names omega [ ("To", "City") ] in
  let q2 = Omega.of_names omega [ ("To", "City"); ("Airline", "Discount") ] in
  List.iter
    (fun goal ->
      List.iter
        (fun strategy ->
          let result = Inference.run universe strategy (Oracle.honest ~goal) in
          Alcotest.(check bool)
            (Printf.sprintf "%s equivalent" (Strategy.name strategy))
            true
            (Inference.verified universe ~goal result);
          (* Q1/Q2 are the most specific consistent predicates here, so the
             inference recovers them exactly. *)
          Alcotest.check bits_testable "exact recovery" goal result.predicate)
        [ Strategy.bu; Strategy.td; Strategy.l1s; Strategy.l2s ])
    [ q1; q2 ]

let test_result_metadata () =
  let universe = Universe.build [ flight; hotel ] in
  let omega = Universe.omega universe in
  let goal = Omega.of_names omega [ ("To", "City") ] in
  let result = Inference.run universe Strategy.td (Oracle.honest ~goal) in
  Alcotest.(check string) "strategy name" "TD" result.strategy;
  Alcotest.(check bool) "halted" true result.halted;
  Alcotest.(check int) "steps = interactions" result.n_interactions
    (List.length result.steps);
  Alcotest.(check bool) "elapsed non-negative" true (result.elapsed >= 0.)

let test_budget () =
  let universe = Universe.build [ flight; hotel ] in
  let omega = Universe.omega universe in
  let goal = Omega.of_names omega [ ("To", "City") ] in
  let result =
    Inference.run ~max_interactions:1 universe Strategy.bu (Oracle.honest ~goal)
  in
  Alcotest.(check int) "one step" 1 result.n_interactions;
  Alcotest.(check bool) "not halted" false result.halted

(* The noisy oracle can only mislead, never crash Algorithm 1: labeling an
   informative tuple keeps the sample consistent by definition. *)
let test_noisy_oracle_never_inconsistent () =
  let prng = Prng.create 31 in
  let goal = pred0 [ (0, 0); (1, 2) ] in
  for _ = 1 to 50 do
    let oracle = Oracle.noisy prng ~error_rate:0.3 (Oracle.honest ~goal) in
    let result = Inference.run universe0 Strategy.td oracle in
    Alcotest.(check bool) "sample stays consistent" true
      (State.consistent result.state)
  done

(* Halt condition Γ: after a run, no informative tuple is left, and the
   result is T(S+). *)
let test_halt_condition () =
  let goal = pred0 [ (1, 2) ] in
  let result = Inference.run universe0 Strategy.l1s (Oracle.honest ~goal) in
  Alcotest.(check bool) "halted" true result.halted;
  Alcotest.(check (list int)) "no informative left" []
    (State.informative_classes result.state);
  Alcotest.check bits_testable "predicate = T(S+)"
    (State.tpos result.state) result.predicate

let test_transcript () =
  let universe = Universe.build [ flight; hotel ] in
  let omega = Universe.omega universe in
  let goal = Omega.of_names omega [ ("To", "City") ] in
  let result = Inference.run universe Strategy.td (Oracle.honest ~goal) in
  let text = Fmt.str "%a" (Inference.pp_transcript universe) result in
  (* One line per step plus the conclusion. *)
  let lines = String.split_on_char '\n' text in
  Alcotest.(check int) "line count" (result.n_interactions + 1)
    (List.length lines);
  Alcotest.(check bool) "mentions the predicate" true
    (let n = String.length text in
     let needle = "(To,City)" in
     let nl = String.length needle in
     let rec go i = i + nl <= n && (String.sub text i nl = needle || go (i + 1)) in
     go 0)

(* ----------------------- random instances ------------------------- *)

let gen_instance =
  QCheck.Gen.(
    let cell = map (fun i -> Value.Int i) (int_bound 2) in
    let* ra = int_range 1 3 and* pa = int_range 1 3 in
    let row arity = map Tuple.of_list (list_repeat arity cell) in
    let* rrows = list_size (int_range 1 4) (row ra)
    and* prows = list_size (int_range 1 4) (row pa) in
    return (ra, pa, rrows, prows))

let build_instance (ra, pa, rrows, prows) =
  let mk name prefix arity rows =
    Relation.of_list ~name
      ~schema:
        (Schema.of_names ~ty:Value.TInt
           (List.init arity (fun i -> Printf.sprintf "%s%d" prefix (i + 1))))
      rows
  in
  Universe.build [ mk "R" "A" ra rrows; mk "P" "B" pa prows ]

let arb_instance =
  QCheck.make gen_instance
    ~print:(fun (ra, pa, rrows, prows) ->
      Printf.sprintf "R:%dx%d P:%dx%d [%s | %s]" (List.length rrows) ra
        (List.length prows) pa
        (String.concat ";" (List.map Tuple.to_string rrows))
        (String.concat ";" (List.map Tuple.to_string prows)))

(* Pick a goal from the instance's own signatures (plus ∅ and Ω). *)
let goals_for universe =
  let omega = Universe.omega universe in
  Omega.empty omega :: Omega.full omega
  :: Universe.signatures universe

let strategy_pool seed =
  [
    Strategy.bu;
    Strategy.td;
    Strategy.l1s;
    Strategy.l2s;
    Strategy.rnd (Prng.create seed);
    Strategy.igs ~samples:32 (Prng.create seed);
  ]

let qcheck_all_strategies_equivalent =
  QCheck.Test.make ~name:"every strategy infers an instance-equivalent predicate"
    ~count:60 arb_instance (fun inst ->
      let universe = build_instance inst in
      List.for_all
        (fun goal ->
          List.for_all
            (fun strategy ->
              let result =
                Inference.run universe strategy (Oracle.honest ~goal)
              in
              result.halted && Inference.verified universe ~goal result)
            (strategy_pool 5))
        (goals_for universe))

let qcheck_interactions_bounded_by_classes =
  QCheck.Test.make ~name:"interactions never exceed the class count" ~count:100
    arb_instance (fun inst ->
      let universe = build_instance inst in
      List.for_all
        (fun goal ->
          let result =
            Inference.run universe Strategy.bu (Oracle.honest ~goal)
          in
          result.n_interactions <= Universe.n_classes universe)
        (goals_for universe))

let qcheck_inferred_is_most_specific_consistent =
  QCheck.Test.make
    ~name:"inferred predicate is consistent and most specific" ~count:60
    arb_instance (fun inst ->
      let universe = build_instance inst in
      List.for_all
        (fun goal ->
          let result =
            Inference.run universe Strategy.td (Oracle.honest ~goal)
          in
          let st = result.state in
          (* Consistent: selects every positive class, no negative class. *)
          List.for_all
            (fun (c, lbl) ->
              let selected =
                Jqi_core.Tsig.selects result.predicate
                  (Universe.signature universe c)
              in
              match lbl with
              | Sample.Positive -> selected
              | Sample.Negative -> not selected)
            (State.history st)
          (* Most specific: any strictly more specific predicate loses a
             positive example. *)
          && Bits.subset result.predicate (State.tpos st)
             && Bits.subset (State.tpos st) result.predicate)
        (goals_for universe))

(* Wider instances (arity up to 5) with the cheap strategies: the
   equivalence guarantee does not depend on Ω staying small. *)
let qcheck_wide_instances =
  let gen =
    QCheck.Gen.(
      let cell = map (fun i -> Value.Int i) (int_bound 2) in
      let* ra = int_range 3 5 and* pa = int_range 3 5 in
      let row arity = map Tuple.of_list (list_repeat arity cell) in
      let* rrows = list_size (int_range 2 3) (row ra)
      and* prows = list_size (int_range 2 3) (row pa) in
      return (ra, pa, rrows, prows))
  in
  QCheck.Test.make ~name:"wide instances stay equivalent" ~count:40
    (QCheck.make gen) (fun inst ->
      let universe = build_instance inst in
      List.for_all
        (fun goal ->
          List.for_all
            (fun strategy ->
              let result = Inference.run universe strategy (Oracle.honest ~goal) in
              result.halted && Inference.verified universe ~goal result)
            [ Strategy.bu; Strategy.td; Strategy.l1s ])
        (goals_for universe))

let suite =
  [
    Alcotest.test_case "flight&hotel Q1/Q2" `Quick test_flight_hotel;
    Alcotest.test_case "result metadata" `Quick test_result_metadata;
    Alcotest.test_case "interaction budget" `Quick test_budget;
    Alcotest.test_case "noisy oracle stays consistent" `Quick test_noisy_oracle_never_inconsistent;
    Alcotest.test_case "halt condition" `Quick test_halt_condition;
    Alcotest.test_case "transcript rendering" `Quick test_transcript;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_all_strategies_equivalent;
        qcheck_interactions_bounded_by_classes;
        qcheck_inferred_is_most_specific_consistent;
        qcheck_wide_instances;
      ]
