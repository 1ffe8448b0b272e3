(* The minimax-optimal strategy (§4.1): sanity on tiny instances and
   optimality as a lower bound for the heuristic strategies. *)

open Fixtures
module Bits = Jqi_util.Bits
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Minimax = Jqi_core.Minimax

let tiny_universe sigs =
  (* A universe given directly by signatures over a 2x2 Ω. *)
  let omega = Omega.create ~n:2 ~m:2 () in
  Universe.of_signature_list omega
    (List.map (fun pairs -> (Omega.of_pairs omega pairs, 1, [| 0; 0 |])) sigs)

let test_single_class () =
  (* One class: a single question settles everything. *)
  let u = tiny_universe [ [ (0, 0) ] ] in
  Alcotest.(check int) "one interaction" 1 (Minimax.optimal_interactions u)

let test_two_incomparable_classes () =
  (* Two incomparable signatures: neither label of one can certify the
     other, so two questions are needed in the worst case. *)
  let u = tiny_universe [ [ (0, 0) ]; [ (1, 1) ] ] in
  Alcotest.(check int) "two interactions" 2 (Minimax.optimal_interactions u)

let test_chain_classes () =
  (* ∅ ⊂ {(0,0)}: asking the top first: if positive, tpos = {(0,0)} and ∅
     stays informative; asking ∅ first: positive ends (tpos = ∅ certifies
     both)... the optimum is still 2 in the worst case. *)
  let u = tiny_universe [ []; [ (0, 0) ] ] in
  Alcotest.(check int) "worst case two" 2 (Minimax.optimal_interactions u)

let test_example_2_1_optimal_vs_strategies () =
  (* The optimal worst-case count on Example 2.1 lower-bounds every
     strategy's worst case over the same goals, and the strategies reach
     within a small factor of it. *)
  let opt = Minimax.optimal_interactions universe0 in
  Alcotest.(check bool) "positive" true (opt >= 1);
  let worst strategy =
    List.fold_left
      (fun acc goal ->
        let result =
          Inference.run universe0 strategy (Oracle.honest ~goal)
        in
        max acc result.n_interactions)
      0
      (Omega.empty omega0 :: Omega.full omega0 :: Universe.signatures universe0)
  in
  List.iter
    (fun strategy ->
      Alcotest.(check bool)
        (Printf.sprintf "%s worst >= optimal" (Strategy.name strategy))
        true
        (worst strategy >= opt))
    [ Strategy.bu; Strategy.td; Strategy.l1s; Strategy.l2s ]

let test_optimal_strategy_plays_optimally () =
  (* Playing the minimax strategy against the adversarial honest user never
     exceeds the optimal worst case, for any goal. *)
  let opt = Minimax.optimal_interactions universe0 in
  List.iter
    (fun goal ->
      let strategy = Minimax.strategy universe0 in
      let result = Inference.run universe0 strategy (Oracle.honest ~goal) in
      Alcotest.(check bool) "within optimal bound" true
        (result.n_interactions <= opt);
      Alcotest.(check bool) "equivalent" true
        (Inference.verified universe0 ~goal result))
    (Omega.empty omega0 :: Omega.full omega0 :: Universe.signatures universe0)

let test_node_budget () =
  Alcotest.check_raises "budget enforced" Minimax.Too_large (fun () ->
      ignore (Minimax.optimal_interactions ~max_nodes:1 universe0))

let suite =
  [
    Alcotest.test_case "single class" `Quick test_single_class;
    Alcotest.test_case "two incomparable classes" `Quick test_two_incomparable_classes;
    Alcotest.test_case "chain classes" `Quick test_chain_classes;
    Alcotest.test_case "optimal lower-bounds strategies" `Quick test_example_2_1_optimal_vs_strategies;
    Alcotest.test_case "minimax strategy plays optimally" `Quick test_optimal_strategy_plays_optimally;
    Alcotest.test_case "node budget" `Quick test_node_budget;
  ]
