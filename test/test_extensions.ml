(* Extension features on the core: majority-vote oracles, the hybrid
   strategy, sampled universes, query-by-output. *)

open Fixtures
module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Sample = Jqi_core.Sample
module Qbe = Jqi_core.Qbe
module Omega = Jqi_core.Omega

(* ------------------------- majority oracle ------------------------ *)

let test_majority_validation () =
  let base = Oracle.honest ~goal:(pred0 []) in
  Alcotest.(check bool) "even votes rejected" true
    (try ignore (Oracle.majority ~votes:2 base); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero votes rejected" true
    (try ignore (Oracle.majority ~votes:0 base); false
     with Invalid_argument _ -> true)

let test_majority_fixes_noise () =
  (* A 20%-noisy labeler wrapped in a 15-vote majority recovers the goal
     on (nearly) every run (per-label error drops to P[Bin(15,.2) >= 8] ≈
     0.4%); the raw noisy labeler fails most runs. *)
  let goal = pred0 [ (0, 0); (1, 2) ] in
  let runs = 50 in
  let recovered oracle_of =
    let ok = ref 0 in
    for k = 1 to runs do
      let result = Inference.run universe0 Strategy.td (oracle_of k) in
      if Inference.verified universe0 ~goal result then incr ok
    done;
    !ok
  in
  let noisy k = Oracle.noisy (Prng.create k) ~error_rate:0.2 (Oracle.honest ~goal) in
  let voted k = Oracle.majority ~votes:15 (noisy k) in
  let raw = recovered noisy and fixed = recovered voted in
  Alcotest.(check bool)
    (Printf.sprintf "majority (%d/%d) beats raw noise (%d/%d)" fixed runs raw runs)
    true
    (fixed > raw && fixed >= runs - 5)

let test_majority_deterministic_on_honest () =
  let goal = pred0 [ (0, 2) ] in
  let oracle = Oracle.majority ~votes:3 (Oracle.honest ~goal) in
  let result = Inference.run universe0 Strategy.bu oracle in
  Alcotest.(check bool) "same as honest" true
    (Inference.verified universe0 ~goal result)

(* -------------------------- hybrid strategy ----------------------- *)

let test_hybrid_equivalence () =
  List.iter
    (fun goal ->
      let result = Inference.run universe0 Strategy.hybrid (Oracle.honest ~goal) in
      Alcotest.(check bool) "hybrid equivalent" true
        (Inference.verified universe0 ~goal result))
    [ pred0 []; pred0 [ (0, 2) ]; pred0 [ (0, 0); (1, 2) ]; Omega.full omega0 ]

let test_hybrid_matches_td_before_positive () =
  let st = Jqi_core.State.create universe0 in
  Alcotest.(check (option int)) "same first pick"
    (Strategy.choose Strategy.td st)
    (Strategy.choose Strategy.hybrid st)

let test_hybrid_matches_l2s_after_positive () =
  let st = Jqi_core.State.create universe0 in
  Jqi_core.State.label st (class0 (1, 3)) Sample.Positive;
  Alcotest.(check (option int)) "same pick after positive"
    (Strategy.choose Strategy.l2s st)
    (Strategy.choose Strategy.hybrid st)

(* Every [Engine.select] (one "strategy.choose" span) counts one
   [strategy.choices], also when the hybrid delegates to TD or L2S.  The
   goal needs positive answers, so both phases run. *)
let test_hybrid_counts_each_choice_once () =
  let module Obs = Jqi_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  let result, report =
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled false;
        Obs.reset ())
      (fun () ->
        let result =
          Inference.run universe0 Strategy.hybrid
            (Oracle.honest ~goal:(pred0 [ (0, 2) ]))
        in
        (result, Obs.Report.snapshot ()))
  in
  let selects =
    List.fold_left
      (fun acc (s : Obs.Report.span_summary) ->
        if String.equal s.s_name "strategy.choose" then acc + s.s_calls else acc)
      0 report.Obs.Report.spans
  in
  Alcotest.(check bool) "L2S phase reached" true
    (Obs.Report.counter report "oracle.answers_positive" > 0);
  Alcotest.(check bool) "several choices" true (result.Inference.n_interactions > 1);
  Alcotest.(check int) "strategy.choices = Engine.select calls" selects
    (Obs.Report.counter report "strategy.choices")

(* -------------------------- sampled universe ---------------------- *)

let test_sampled_universe_shape () =
  let prng = Prng.create 3 in
  let u = Universe.build_sampled prng ~tuples:500 [ r0; p0 ] in
  Alcotest.(check int) "total = sample size" 500 (Universe.total_tuples u);
  (* With 500 draws over a 12-tuple product every signature shows up. *)
  Alcotest.(check int) "all signatures seen" (Universe.n_classes universe0)
    (Universe.n_classes u);
  (* Sampled multiplicities roughly uniform: each class ~500/12. *)
  Array.iter
    (fun (c : Universe.cls) ->
      Alcotest.(check bool) "plausible multiplicity" true
        (c.count > 10 && c.count < 90))
    (Universe.classes u)

let test_sampled_universe_inference () =
  let prng = Prng.create 9 in
  let u = Universe.build_sampled prng ~tuples:400 [ r0; p0 ] in
  let goal = pred0 [ (0, 0); (1, 2) ] in
  let result = Inference.run u Strategy.td (Oracle.honest ~goal) in
  Alcotest.(check bool) "equivalent on the sampled universe" true
    (Inference.verified u ~goal result)

let test_sampled_universe_validation () =
  let prng = Prng.create 1 in
  Alcotest.(check bool) "zero pairs rejected" true
    (try ignore (Universe.build_sampled prng ~tuples:0 [ r0; p0 ]); false
     with Invalid_argument _ -> true)

(* ----------------------------- QBE -------------------------------- *)

let test_qbe_basic () =
  (* Example 3.1's positives {(t2,t'2), (t4,t'1)} without interaction. *)
  let result =
    Qbe.infer universe0 ~positives:[ d0 (2, 2); d0 (4, 1) ] ~negatives:[]
  in
  Alcotest.check bits_testable "θ0" (pred0 [ (0, 0); (1, 2) ]) result.predicate;
  Alcotest.(check bool) "consistent" true result.consistent;
  (* θ0 selects exactly the two example classes: nothing surprising. *)
  Alcotest.(check (list int)) "no surprises" [] result.surprise_classes;
  Alcotest.(check int) "surprise count" 0 (Qbe.surprise_tuples universe0 result)

let test_qbe_surprise () =
  (* A single positive under-specifies the query: T(t2,t'1) = {(A1,B3)}
     selects four more tuples the user never asked for. *)
  let result = Qbe.infer universe0 ~positives:[ d0 (2, 1) ] ~negatives:[] in
  Alcotest.(check int) "four surprises" 4
    (List.length result.surprise_classes);
  Alcotest.(check int) "selected = examples + surprises"
    (List.length result.selected_classes)
    (1 + List.length result.surprise_classes)

let test_qbe_inconsistent () =
  let result =
    Qbe.infer universe0 ~positives:[ d0 (1, 2); d0 (1, 3) ]
      ~negatives:[ d0 (3, 1) ]
  in
  Alcotest.(check bool) "inconsistent detected" false result.consistent

let test_qbe_matches_interactive () =
  (* QBE over the full honest labeling equals the interactive result. *)
  let goal = pred0 [ (1, 2) ] in
  let positives =
    List.filter
      (fun ij -> Jqi_core.Tsig.selects goal (Universe.signature universe0 (class0 ij)))
      [ (1, 1); (1, 2); (1, 3); (2, 1); (2, 2); (2, 3);
        (3, 1); (3, 2); (3, 3); (4, 1); (4, 2); (4, 3) ]
    |> List.map d0
  in
  let qbe = Qbe.infer universe0 ~positives ~negatives:[] in
  let interactive = Inference.run universe0 Strategy.td (Oracle.honest ~goal) in
  Alcotest.(check bool) "same instance-equivalent predicate" true
    (Universe.equivalent universe0 qbe.predicate interactive.predicate)

(* Qbe examples are row pairs: a k = 3 universe is refused for its
   arity, not mistaken for one without relations. *)
let test_qbe_rejects_three_relations () =
  let u = Universe.build [ r0; p0; r0 ] in
  Alcotest.check_raises "three relations"
    (Invalid_argument
       "Qbe.infer: examples are row pairs, but the universe has 3 relations")
    (fun () -> ignore (Qbe.infer u ~positives:[ (0, 0) ] ~negatives:[]))

let test_qbe_rejects_no_relations () =
  let u =
    Universe.of_signature_list omega0 [ (Omega.empty omega0, 1, [| 0; 0 |]) ]
  in
  Alcotest.check_raises "no relations"
    (Invalid_argument "Qbe.infer: universe has no backing relations")
    (fun () -> ignore (Qbe.infer u ~positives:[ (0, 0) ] ~negatives:[]))

let suite =
  [
    Alcotest.test_case "majority validation" `Quick test_majority_validation;
    Alcotest.test_case "majority fixes noise" `Quick test_majority_fixes_noise;
    Alcotest.test_case "majority on honest" `Quick test_majority_deterministic_on_honest;
    Alcotest.test_case "hybrid equivalence" `Quick test_hybrid_equivalence;
    Alcotest.test_case "hybrid = TD before positive" `Quick test_hybrid_matches_td_before_positive;
    Alcotest.test_case "hybrid = L2S after positive" `Quick test_hybrid_matches_l2s_after_positive;
    Alcotest.test_case "sampled universe shape" `Quick test_sampled_universe_shape;
    Alcotest.test_case "sampled universe inference" `Quick test_sampled_universe_inference;
    Alcotest.test_case "sampled universe validation" `Quick test_sampled_universe_validation;
    Alcotest.test_case "qbe basic" `Quick test_qbe_basic;
    Alcotest.test_case "qbe surprise reporting" `Quick test_qbe_surprise;
    Alcotest.test_case "qbe inconsistency" `Quick test_qbe_inconsistent;
    Alcotest.test_case "qbe matches interactive" `Quick test_qbe_matches_interactive;
    Alcotest.test_case "qbe rejects a 3-relation universe" `Quick
      test_qbe_rejects_three_relations;
    Alcotest.test_case "qbe rejects a universe without relations" `Quick
      test_qbe_rejects_no_relations;
    Alcotest.test_case "hybrid counts each choice once" `Quick
      test_hybrid_counts_each_choice_once;
  ]
