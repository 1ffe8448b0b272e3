(* TPC-H-style generator: schema shapes, key/FK integrity, determinism. *)

module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Tpch = Jqi_tpch.Tpch
module Universe = Jqi_core.Universe
module Omega = Jqi_core.Omega

let db = Tpch.generate ~seed:1 ~scale:1 ()

let col rel name row = Tuple.get row (Schema.index_of_exn (Relation.schema rel) name)

let int_col rel name row =
  match col rel name row with Value.Int i -> i | _ -> Alcotest.fail "not an int"

let test_arities () =
  Alcotest.(check int) "part 9 cols" 9 (Relation.arity db.part);
  Alcotest.(check int) "supplier 7 cols" 7 (Relation.arity db.supplier);
  Alcotest.(check int) "partsupp 5 cols" 5 (Relation.arity db.partsupp);
  Alcotest.(check int) "customer 8 cols" 8 (Relation.arity db.customer);
  Alcotest.(check int) "orders 9 cols" 9 (Relation.arity db.orders);
  Alcotest.(check int) "lineitem 16 cols" 16 (Relation.arity db.lineitem)

let test_row_counts_scale () =
  let db2 = Tpch.generate ~seed:1 ~scale:2 () in
  Alcotest.(check int) "part doubles" (2 * Relation.cardinality db.part)
    (Relation.cardinality db2.part);
  Alcotest.(check int) "lineitem doubles" (2 * Relation.cardinality db.lineitem)
    (Relation.cardinality db2.lineitem)

let keys rel name =
  List.map (int_col rel name) (Relation.to_list rel)

let test_primary_keys_unique () =
  List.iter
    (fun (rel, key) ->
      let ks = keys rel key in
      Alcotest.(check int)
        (Printf.sprintf "%s.%s unique" (Relation.name rel) key)
        (List.length ks)
        (List.length (List.sort_uniq compare ks)))
    [
      (db.part, "p_partkey");
      (db.supplier, "s_suppkey");
      (db.customer, "c_custkey");
      (db.orders, "o_orderkey");
    ]

let test_partsupp_pk_and_fks () =
  let pairs =
    List.map
      (fun row -> (int_col db.partsupp "ps_partkey" row, int_col db.partsupp "ps_suppkey" row))
      (Relation.to_list db.partsupp)
  in
  Alcotest.(check int) "composite key unique" (List.length pairs)
    (List.length (List.sort_uniq compare pairs));
  let parts = keys db.part "p_partkey" and supps = keys db.supplier "s_suppkey" in
  List.iter
    (fun (pk, sk) ->
      Alcotest.(check bool) "partkey FK" true (List.mem pk parts);
      Alcotest.(check bool) "suppkey FK" true (List.mem sk supps))
    pairs

let test_orders_lineitem_fks () =
  let orderkeys = keys db.orders "o_orderkey" in
  let custkeys = keys db.customer "c_custkey" in
  List.iter
    (fun row ->
      Alcotest.(check bool) "o_custkey FK" true
        (List.mem (int_col db.orders "o_custkey" row) custkeys))
    (Relation.to_list db.orders);
  let ps_pairs =
    List.map
      (fun row -> (int_col db.partsupp "ps_partkey" row, int_col db.partsupp "ps_suppkey" row))
      (Relation.to_list db.partsupp)
  in
  List.iter
    (fun row ->
      Alcotest.(check bool) "l_orderkey FK" true
        (List.mem (int_col db.lineitem "l_orderkey" row) orderkeys);
      (* Join 5's composite FK: (l_partkey, l_suppkey) ∈ partsupp. *)
      Alcotest.(check bool) "(l_partkey,l_suppkey) FK" true
        (List.mem
           ( int_col db.lineitem "l_partkey" row,
             int_col db.lineitem "l_suppkey" row )
           ps_pairs))
    (Relation.to_list db.lineitem)

let test_deterministic () =
  let a = Tpch.generate ~seed:9 ~scale:1 () and b = Tpch.generate ~seed:9 ~scale:1 () in
  Alcotest.(check bool) "same data" true (Relation.equal_contents a.lineitem b.lineitem);
  let c = Tpch.generate ~seed:10 ~scale:1 () in
  Alcotest.(check bool) "different seed differs" false
    (Relation.equal_contents a.lineitem c.lineitem)

let test_joins_metadata () =
  let joins = Tpch.joins db in
  Alcotest.(check int) "five joins" 5 (List.length joins);
  (* Each goal join's attribute names are disjoint between the two sides
     (the paper's standing assumption), and the goal predicate resolves. *)
  List.iter
    (fun (j : Tpch.goal_join) ->
      let rn = Schema.names (Relation.schema j.r) in
      let pn = Schema.names (Relation.schema j.p) in
      Alcotest.(check bool)
        (j.label ^ " disjoint attrs") true
        (List.for_all (fun n -> not (List.mem n pn)) rn);
      let omega = Omega.of_schemas (Relation.schema j.r) (Relation.schema j.p) in
      Alcotest.(check int)
        (j.label ^ " goal size")
        (List.length j.pairs)
        (Jqi_util.Bits.cardinal (Tpch.goal_predicate omega j)))
    joins

(* The paper's premise: the goal FK join must actually be the most specific
   consistent predicate discoverable from the data — i.e., inference
   recovers something instance-equivalent (checked end-to-end elsewhere);
   here we check the FK join selects exactly the FK-matching pairs. *)
let test_goal_join_is_fk_join () =
  let join1 = List.hd (Tpch.joins db) in
  let result =
    Jqi_relational.Join.equijoin join1.r join1.p
      (Jqi_relational.Join.predicate_of_names join1.r join1.p join1.pairs)
  in
  (* Every partsupp row pairs with exactly one part: |result| = |partsupp|. *)
  Alcotest.(check int) "one part per partsupp"
    (Relation.cardinality db.partsupp)
    (Relation.cardinality result)

(* --------------------- k-ary inference pin ------------------------ *)

(* End-to-end over the 3-table natural-key chain
   part ⋈ partsupp ⋈ supplier (projected to the join-relevant columns so
   the quotient stays small): BU, TD and L2S must all converge to a
   predicate instance-equivalent to the FK chain, with bit-identical
   traces whichever k-ary universe builder produced the quotient — the
   in-process counterpart of `jqinfer infer --relations ... --universe`. *)
let test_kary_chain_inference () =
  let part = Jqi_relational.Algebra.project db.part [ "p_partkey"; "p_size" ] in
  let partsupp =
    Jqi_relational.Algebra.project db.partsupp [ "ps_partkey"; "ps_suppkey" ]
  in
  let supplier =
    Jqi_relational.Algebra.project db.supplier [ "s_suppkey"; "s_nationkey" ]
  in
  let rels = [ part; partsupp; supplier ] in
  let u_quot = Universe.build rels in
  let u_naive = Universe.build_kary_naive rels in
  let goal u =
    Omega.of_names_kary (Universe.omega u)
      [
        ("part.p_partkey", "partsupp.ps_partkey");
        ("partsupp.ps_suppkey", "supplier.s_suppkey");
      ]
  in
  let label_equal a b =
    match (a, b) with
    | Jqi_core.Sample.Positive, Jqi_core.Sample.Positive
    | Jqi_core.Sample.Negative, Jqi_core.Sample.Negative ->
        true
    | Jqi_core.Sample.Positive, Jqi_core.Sample.Negative
    | Jqi_core.Sample.Negative, Jqi_core.Sample.Positive ->
        false
  in
  List.iter
    (fun (name, strategy) ->
      let run u =
        Jqi_core.Inference.run u strategy
          (Jqi_core.Oracle.honest ~goal:(goal u))
      in
      let a = run u_quot and b = run u_naive in
      Alcotest.(check bool)
        (name ^ " converges on the quotient universe")
        true
        (Jqi_core.Inference.verified u_quot ~goal:(goal u_quot) a);
      Alcotest.(check bool)
        (name ^ " converges on the naive universe")
        true
        (Jqi_core.Inference.verified u_naive ~goal:(goal u_naive) b);
      Alcotest.(check bool)
        (name ^ " predicates identical across builders")
        true
        (Jqi_util.Bits.equal a.Jqi_core.Inference.predicate
           b.Jqi_core.Inference.predicate);
      Alcotest.(check bool)
        (name ^ " traces identical across builders")
        true
        (List.equal
           (fun (c1, l1) (c2, l2) -> Int.equal c1 c2 && label_equal l1 l2)
           a.Jqi_core.Inference.steps b.Jqi_core.Inference.steps))
    [ ("bu", Jqi_core.Strategy.bu); ("td", Jqi_core.Strategy.td);
      ("l2s", Jqi_core.Strategy.lks 2) ]

let suite =
  [
    Alcotest.test_case "table arities" `Quick test_arities;
    Alcotest.test_case "row counts scale" `Quick test_row_counts_scale;
    Alcotest.test_case "primary keys unique" `Quick test_primary_keys_unique;
    Alcotest.test_case "partsupp pk and fks" `Quick test_partsupp_pk_and_fks;
    Alcotest.test_case "orders/lineitem fks" `Quick test_orders_lineitem_fks;
    Alcotest.test_case "deterministic by seed" `Quick test_deterministic;
    Alcotest.test_case "goal joins metadata" `Quick test_joins_metadata;
    Alcotest.test_case "goal join is the FK join" `Quick test_goal_join_is_fk_join;
    Alcotest.test_case "3-table k-ary chain inference pin" `Quick
      test_kary_chain_inference;
  ]
