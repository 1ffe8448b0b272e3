(* SQL analytics over the generated TPC-H data.

   Once a join has been *inferred*, the user wants to *use* it: this
   example generates the warehouse, lets the inference engine rediscover
   the customer-order join, emits it as SQL, and then composes it with the
   engine's aggregate support for the kind of questions TPC-H exists to
   ask.

   Run with:  dune exec examples/sql_analytics.exe *)

module Relation = Jqi_relational.Relation
module Universe = Jqi_core.Universe
module Omega = Jqi_core.Omega
module Tpch = Jqi_tpch.Tpch
module Engine = Jqi_sql.Engine

let show title sql catalog =
  Printf.printf "\n-- %s\n%s\n" title sql;
  Relation.print (Engine.query catalog sql)

let () =
  let db = Tpch.generate ~scale:2 () in
  let catalog =
    [
      ("part", db.part); ("supplier", db.supplier); ("partsupp", db.partsupp);
      ("customer", db.customer); ("orders", db.orders); ("lineitem", db.lineitem);
    ]
  in
  (* Step 1: infer the customer ⋈ orders join from labels alone. *)
  let join3 = List.nth (Tpch.joins db) 2 in
  let universe = Universe.build [ join3.r; join3.p ] in
  let omega = Universe.omega universe in
  let goal = Tpch.goal_predicate omega join3 in
  let result =
    Jqi_core.Inference.run universe Jqi_core.Strategy.td
      (Jqi_core.Oracle.honest ~goal)
  in
  let inferred_pairs =
    List.map
      (fun (i, j) ->
        ( Jqi_relational.Schema.name_at (Relation.schema join3.r) i,
          Jqi_relational.Schema.name_at (Relation.schema join3.p) j ))
      (Omega.to_pairs omega result.predicate)
  in
  let inferred_sql =
    Jqi_sql.Ast.to_string
      (Jqi_sql.Ast.of_equijoin ~r:"customer" ~p:"orders" inferred_pairs)
  in
  Printf.printf
    "Inferred the customer/orders join in %d labels; as SQL:\n  %s\n"
    result.n_interactions inferred_sql;

  (* Step 2: analytics on top of the discovered join. *)
  show "orders and revenue per market segment"
    "SELECT c_mktsegment, COUNT(*) AS orders, SUM(o_totalprice) AS revenue \
     FROM customer JOIN orders ON c_custkey = o_custkey \
     GROUP BY c_mktsegment ORDER BY c_mktsegment"
    catalog;
  show "busiest customers (3+ orders)"
    "SELECT c_name, COUNT(*) AS n FROM customer \
     JOIN orders ON c_custkey = o_custkey \
     GROUP BY c_name HAVING n >= 3 ORDER BY n DESC, c_name LIMIT 5"
    catalog;
  show "suppliers with no line items (anti join)"
    "SELECT s_suppkey, s_name FROM supplier \
     ANTI JOIN lineitem ON s_suppkey = l_suppkey ORDER BY s_suppkey LIMIT 5"
    catalog;
  show "average quantity per ship mode"
    "SELECT l_shipmode, AVG(l_quantity) AS avg_qty, COUNT(*) AS items \
     FROM lineitem GROUP BY l_shipmode ORDER BY l_shipmode"
    catalog;
  show "large urgent orders"
    "SELECT o_orderkey, o_totalprice FROM orders \
     WHERE o_orderpriority = '1-URGENT' AND o_totalprice >= 300000 \
     ORDER BY o_totalprice DESC LIMIT 5"
    catalog
