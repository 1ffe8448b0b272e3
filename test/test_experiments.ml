(* Experiment drivers: averaging, figure/table generation at toy sizes,
   Theorem 6.1 agreement. *)

module E = Jqi_experiments
module Synth = Jqi_synth.Synth

let m strategy interactions seconds : E.Runner.measurement =
  { strategy; interactions; seconds; verified = true }

let test_average () =
  let runs = [ [ m "BU" 2. 0.1; m "TD" 4. 0.2 ]; [ m "BU" 4. 0.3; m "TD" 6. 0.4 ] ] in
  match E.Runner.average runs with
  | [ bu; td ] ->
      Alcotest.(check string) "name" "BU" bu.strategy;
      Alcotest.(check (float 1e-9)) "bu interactions" 3. bu.interactions;
      Alcotest.(check (float 1e-9)) "td interactions" 5. td.interactions;
      Alcotest.(check (float 1e-9)) "td seconds" 0.3 td.seconds
  | _ -> Alcotest.fail "wrong shape"

let test_average_empty () =
  Alcotest.(check int) "empty ok" 0 (List.length (E.Runner.average []))

let test_best_by_interactions () =
  match E.Runner.best_by_interactions [ m "A" 5. 0.; m "B" 2. 0.; m "C" 3. 0. ] with
  | Some best -> Alcotest.(check string) "B wins" "B" best.strategy
  | None -> Alcotest.fail "expected a winner"

let test_run_goal_shape () =
  let universe = Jqi_core.Universe.build [ Fixtures.r0; Fixtures.p0 ] in
  let goal = Fixtures.pred0 [ (0, 2) ] in
  let ms = E.Runner.run_goal universe ~goal (E.Runner.paper_strategies ~seed:1 ()) in
  Alcotest.(check (list string)) "strategy order" E.Runner.strategy_names
    (List.map (fun (x : E.Runner.measurement) -> x.strategy) ms);
  List.iter
    (fun (x : E.Runner.measurement) ->
      Alcotest.(check bool) (x.strategy ^ " verified") true x.verified;
      Alcotest.(check bool) "positive interactions" true (x.interactions >= 1.))
    ms

let test_fig6_smoke () =
  let results = E.Fig6.run { name = "test"; scale = 1; seed = 3 } in
  Alcotest.(check int) "five joins" 5 (List.length results);
  List.iter
    (fun (r : E.Fig6.join_result) ->
      Alcotest.(check int) "five strategies" 5 (List.length r.measurements);
      List.iter
        (fun (x : E.Runner.measurement) ->
          Alcotest.(check bool)
            (r.label ^ " " ^ x.strategy ^ " verified")
            true x.verified)
        r.measurements)
    results;
  (* Rendering never raises. *)
  let chart = E.Fig6.interactions_chart ~title:"t" results in
  Alcotest.(check bool) "chart nonempty" true (String.length chart > 0);
  let table = E.Fig6.time_table ~paper:E.Paper.fig6c_times_sf1 results in
  Alcotest.(check bool) "table nonempty" true (String.length table > 0)

let test_fig7_smoke () =
  let result = E.Fig7.run ~seed:3 ~runs:2 ~goals_per_size:1 (Synth.config 2 2 10 4) in
  Alcotest.(check int) "sizes 0..4" 5 (List.length result.by_size);
  Alcotest.(check bool) "join ratio positive" true (result.join_ratio > 0.);
  let chart = E.Fig7.interactions_chart result in
  Alcotest.(check bool) "chart ok" true (String.length chart > 0);
  let table = E.Fig7.time_table ~paper:(snd (List.hd E.Paper.fig7_times)) result in
  Alcotest.(check bool) "table ok" true (String.length table > 0)

let test_table1_rows () =
  let rows =
    [
      E.Table1.of_measurements ~dataset:"d" ~goal:"g" ~product_size:100.
        ~join_ratio:1.5
        [ m "BU" 3. 0.1; m "TD" 3. 0.05; m "L2S" 7. 1.0 ];
    ]
  in
  (match rows with
  | [ r ] ->
      Alcotest.(check string) "ties joined" "BU/TD" r.best;
      Alcotest.(check (float 1e-9)) "interactions" 3. r.best_interactions
  | _ -> Alcotest.fail "shape");
  let rendered = E.Table1.render ~paper_hint:[ ("TD", 3) ] rows in
  Alcotest.(check bool) "rendered" true (String.length rendered > 0)

let test_paper_data_shape () =
  Alcotest.(check int) "5 strategies" 5 (List.length E.Paper.strategy_order);
  Alcotest.(check int) "table1 sf1 rows" 5 (List.length E.Paper.table1_tpch_sf1);
  Alcotest.(check int) "table1 synth blocks" 6 (List.length E.Paper.table1_synth);
  Alcotest.(check int) "fig7 tables" 6 (List.length E.Paper.fig7_times);
  List.iter
    (fun (_, t) ->
      Alcotest.(check int) "5 sizes" 5 (Array.length t);
      Array.iter (fun row -> Alcotest.(check int) "5 cols" 5 (Array.length row)) t)
    E.Paper.fig7_times

let test_scaling () =
  let points = E.Scaling.run ~seed:4 ~runs:1 [ 10; 20 ] in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun (pt : E.Scaling.point) ->
      Alcotest.(check int) "product" (pt.rows * pt.rows) pt.product;
      Alcotest.(check bool) "classes positive" true (pt.classes > 0.);
      Alcotest.(check bool) "build time non-negative" true (pt.build_seconds >= 0.))
    points;
  Alcotest.(check bool) "render ok" true
    (String.length (E.Scaling.render points) > 0)

let test_semijoin_exp () =
  let points = E.Semijoin_exp.run ~seed:2 ~per_point:2 [ (3, 6); (4, 8) ] in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun (p : E.Semijoin_exp.point) ->
      Alcotest.(check bool) "agree" true p.agree;
      Alcotest.(check bool) "fraction in [0,1]" true
        (p.sat_fraction >= 0. && p.sat_fraction <= 1.))
    points;
  Alcotest.(check bool) "render ok" true
    (String.length (E.Semijoin_exp.render points) > 0)

let suite =
  [
    Alcotest.test_case "runner average" `Quick test_average;
    Alcotest.test_case "runner average empty" `Quick test_average_empty;
    Alcotest.test_case "best by interactions" `Quick test_best_by_interactions;
    Alcotest.test_case "run_goal shape" `Quick test_run_goal_shape;
    Alcotest.test_case "fig6 smoke" `Quick test_fig6_smoke;
    Alcotest.test_case "fig7 smoke" `Quick test_fig7_smoke;
    Alcotest.test_case "table1 rows" `Quick test_table1_rows;
    Alcotest.test_case "paper data shape" `Quick test_paper_data_shape;
    Alcotest.test_case "scaling experiment" `Quick test_scaling;
    Alcotest.test_case "semijoin experiment" `Quick test_semijoin_exp;
  ]
