(* TPC-H exploration (§5.1): infer the five key/foreign-key joins of the
   benchmark with every strategy, never telling the strategies about the
   constraints.

   Run with:  dune exec examples/tpch_exploration.exe -- [scale] *)

module Relation = Jqi_relational.Relation
module Universe = Jqi_core.Universe
module Omega = Jqi_core.Omega
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Tpch = Jqi_tpch.Tpch
module Prng = Jqi_util.Prng

let () =
  let scale =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2
  in
  Printf.printf "Generating TPC-H-style data at scale %d...\n" scale;
  let db = Tpch.generate ~scale () in
  Printf.printf
    "  part=%d supplier=%d partsupp=%d customer=%d orders=%d lineitem=%d rows\n"
    (Relation.cardinality db.part)
    (Relation.cardinality db.supplier)
    (Relation.cardinality db.partsupp)
    (Relation.cardinality db.customer)
    (Relation.cardinality db.orders)
    (Relation.cardinality db.lineitem);
  List.iter
    (fun (join : Tpch.goal_join) ->
      let universe = Universe.build [ join.r; join.p ] in
      let omega = Universe.omega universe in
      let goal = Tpch.goal_predicate omega join in
      Printf.printf
        "\n%s: %s ⋈ %s, |D| = %d, %d signature classes, join ratio %.3f\n"
        join.label (Relation.name join.r) (Relation.name join.p)
        (Universe.total_tuples universe)
        (Universe.n_classes universe)
        (Universe.join_ratio universe);
      Printf.printf "  goal: %s\n" (Omega.pred_to_string omega goal);
      List.iter
        (fun strategy ->
          let result =
            Inference.run universe strategy (Oracle.honest ~goal)
          in
          Printf.printf "  %-4s %3d interactions  %8.4fs  %s\n"
            result.strategy result.n_interactions result.elapsed
            (if Inference.verified universe ~goal result then
               "recovered the FK join"
             else "NOT equivalent (bug!)"))
        [
          Strategy.bu;
          Strategy.td;
          Strategy.l1s;
          Strategy.l2s;
          Strategy.rnd (Prng.create 42);
        ])
    (Tpch.joins db)
