(* Metrics-level regression tests: oracle-interaction counters pinned to
   the values recorded in EXPERIMENTS.md.

   Two layers of pinning:
   - the paper's D0 instance (Figure 3/5 fixture) with the goal T(1,1),
     per strategy — cheap enough to run on every test invocation;
   - TPC-H scale 1, seed 2014, Joins 4 and 5 under the fast lookahead
     engine — the same workload BENCH_lookahead.json measures, so a
     regression in question counts here flags an engine change before the
     bench does.

   These counts are deterministic: the honest oracle and every strategy
   below are deterministic, and counter updates run on the main domain
   only (no domain fan-out in these runs). *)

module Obs = Jqi_obs.Obs
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Tpch = Jqi_tpch.Tpch

(* Run one inference with a clean, enabled registry; return the result
   with the counter snapshot. *)
let instrumented universe strategy ~goal =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let result = Inference.run universe strategy (Oracle.honest ~goal) in
      (result, Obs.Report.snapshot ()))

let check_questions name ~expect (result, report) =
  Alcotest.(check int)
    (name ^ ": oracle.questions")
    expect
    (Obs.Report.counter report "oracle.questions");
  Alcotest.(check int)
    (name ^ ": counter agrees with n_interactions")
    result.Inference.n_interactions
    (Obs.Report.counter report "oracle.questions");
  Alcotest.(check int)
    (name ^ ": answers partition questions")
    (Obs.Report.counter report "oracle.questions")
    (Obs.Report.counter report "oracle.answers_positive"
    + Obs.Report.counter report "oracle.answers_negative")

(* D0 with goal T(1,1) = {(A1,B3)}: the EXPERIMENTS.md "D0 fixture metrics"
   table. *)
let test_d0_bu () =
  check_questions "BU" ~expect:2
    (instrumented Fixtures.universe0 Strategy.bu ~goal:(Fixtures.pred0 [ (0, 2) ]))

let test_d0_td () =
  check_questions "TD" ~expect:3
    (instrumented Fixtures.universe0 Strategy.td ~goal:(Fixtures.pred0 [ (0, 2) ]))

let test_d0_l2s () =
  let ((_, report) as run) =
    instrumented Fixtures.universe0 Strategy.l2s ~goal:(Fixtures.pred0 [ (0, 2) ])
  in
  check_questions "L2S" ~expect:4 run;
  (* The fast engine both scored and pruned candidates, and its
     State.Key-canonical branch cache was exercised on both sides. *)
  let c = Obs.Report.counter report in
  Alcotest.(check bool) "candidates scored" true (c "lookahead.candidates_scored" > 0);
  Alcotest.(check bool) "candidates pruned" true (c "lookahead.candidates_pruned" > 0);
  Alcotest.(check bool) "branch cache hits" true (c "lookahead.branch_cache_hit" > 0);
  Alcotest.(check bool) "branch cache misses" true (c "lookahead.branch_cache_miss" > 0)

(* TPC-H scale 1, seed 2014, fast engine: the EXPERIMENTS.md lookahead
   table (Joins 4/5 × k=1/2 → 6/5/7/5 questions). *)
let test_tpch_lookahead () =
  let db = Tpch.generate ~seed:2014 ~scale:1 () in
  let joins = Tpch.joins db in
  List.iter
    (fun (idx, k, expect) ->
      let join : Tpch.goal_join = List.nth joins idx in
      let universe = Universe.build [ join.r; join.p ] in
      let goal = Tpch.goal_predicate (Universe.omega universe) join in
      let ((_, report) as run) =
        instrumented universe (Strategy.lks k) ~goal
      in
      check_questions (Printf.sprintf "%s k=%d" join.label k) ~expect run;
      let c = Obs.Report.counter report in
      Alcotest.(check bool) "scored some candidates" true
        (c "lookahead.candidates_scored" > 0);
      Alcotest.(check bool) "pruned some candidates" true
        (c "lookahead.candidates_pruned" > 0);
      if k = 2 then
        Alcotest.(check bool) "branch cache used at k=2" true
          (c "lookahead.branch_cache_hit" > 0
          && c "lookahead.branch_cache_miss" > 0))
    [ (3, 1, 6); (3, 2, 5); (4, 1, 7); (4, 2, 5) ]

let suite =
  [
    Alcotest.test_case "D0 BU question count" `Quick test_d0_bu;
    Alcotest.test_case "D0 TD question count" `Quick test_d0_td;
    Alcotest.test_case "D0 L2S question count + engine counters" `Quick test_d0_l2s;
    Alcotest.test_case "TPC-H fast lookahead question counts" `Slow test_tpch_lookahead;
  ]
