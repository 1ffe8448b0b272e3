(* Join paths (§7 extension) as chain-masked k-ary universes: Ω keeps
   only the adjacent blocks (i, i+1), so a path predicate selects a path
   tuple iff θ ⊆ T(t) over the concatenated blocks.  The core certainty
   tests are cross-checked against brute force over every predicate of
   that Ω, and the core strategies must infer path predicates end to
   end on chains of three and four relations. *)

module Prng = Jqi_util.Prng
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Tsig = Jqi_core.Tsig
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Sample = Jqi_core.Sample

let rel name cols rows =
  Relation.of_list ~name ~schema:(Schema.of_names ~ty:Value.TInt cols)
    (List.map Tuple.ints rows)

let chain k = List.init (k - 1) (fun i -> (i, i + 1))

(* A three-relation chain: customers → orders → items, small enough to
   brute-force the path version space. *)
let r1 = rel "c" [ "cid" ] [ [ 1 ]; [ 2 ]; [ 3 ] ]
let r2 = rel "o" [ "ocid"; "oid" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 3; 10 ] ]
let r3 = rel "i" [ "ioid" ] [ [ 10 ]; [ 20 ] ]

let u = Universe.build ~edges:(chain 3) [ r1; r2; r3 ]
let omega = Universe.omega u

let goal = Omega.of_names_kary omega [ ("c.cid", "o.ocid"); ("o.oid", "i.ioid") ]

let label_of goal i =
  if Tsig.selects goal (Universe.signature u i) then Sample.Positive
  else Sample.Negative

let test_build_shape () =
  (* 3·3·2 = 18 path tuples, quotiented into signature classes over the
     two adjacent blocks (c,o) and (o,i) only. *)
  Alcotest.(check int) "18 path tuples" 18 (Universe.total_tuples u);
  Alcotest.(check int) "two edges" 2 (Array.length (Omega.blocks omega));
  Alcotest.(check int) "|Ω| = 1·2 + 2·1" 4 (Omega.width omega);
  Alcotest.(check bool) "fewer classes than tuples" true (Universe.n_classes u <= 18);
  Alcotest.(check bool) "classes = product scan" true
    (Fixtures.universes_agree
       (Universe.build_kary_naive ~edges:(chain 3) [ r1; r2; r3 ])
       u)

let test_build_validation () =
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "single relation rejected" true
    (raises (fun () -> Universe.build [ r1 ]));
  let empty = rel "e" [ "x" ] [] in
  Alcotest.(check bool) "empty relation rejected" true
    (raises (fun () -> Universe.build ~edges:(chain 2) [ r1; empty ]));
  Alcotest.(check bool) "edge past the chain rejected" true
    (raises (fun () -> Universe.build ~edges:[ (0, 1); (1, 3) ] [ r1; r2; r3 ]))

let test_selects () =
  (* The goal selects exactly the FK-consistent path tuples:
     (1,(1,10),10), (2,(2,20),20), (3,(3,10),10). *)
  let selected =
    List.fold_left
      (fun acc i -> acc + Universe.count u i)
      0
      (Universe.selected_classes u goal)
  in
  Alcotest.(check int) "three selected path tuples" 3 selected

(* Brute force: enumerate every predicate of the chain-masked Ω and
   compare Cert± with the polynomial Lemma 3.3/3.4 tests of [State]. *)
let test_certainty_vs_brute () =
  let prng = Prng.create 3 in
  let predicates = Omega.all_predicates omega in
  Alcotest.(check int) "16 path predicates" 16 (List.length predicates);
  let n = Universe.n_classes u in
  for _ = 1 to 60 do
    (* Random consistent sample, built by labeling random classes with a
       random goal's labels. *)
    let goal = Prng.pick_list prng predicates in
    let st = State.create u in
    for _ = 1 to 1 + Prng.int prng 3 do
      let i = Prng.int prng n in
      match State.certain_label st i with
      | Some _ -> () (* already decided; skip to keep the sample consistent *)
      | None -> State.label st i (label_of goal i)
    done;
    let history = State.history st in
    let consistent =
      List.filter
        (fun theta ->
          List.for_all
            (fun (i, lbl) ->
              Sample.equal_label lbl
                (Sample.label_of_bool (Tsig.selects theta (Universe.signature u i))))
            history)
        predicates
    in
    Alcotest.(check bool) "version space nonempty" true (consistent <> []);
    for i = 0 to n - 1 do
      let s = Universe.signature u i in
      let by_def =
        if List.for_all (fun theta -> Tsig.selects theta s) consistent then
          Some Sample.Positive
        else if List.for_all (fun theta -> not (Tsig.selects theta s)) consistent
        then Some Sample.Negative
        else None
      in
      Alcotest.(check (option Fixtures.label_testable))
        (Printf.sprintf "class %d" i)
        by_def (State.certain_label st i)
    done
  done

let strategies () =
  [ Strategy.bu; Strategy.td; Strategy.l1s; Strategy.l2s; Strategy.rnd (Prng.create 5) ]

let test_only_informative_proposed () =
  List.iter
    (fun strategy ->
      let st = State.create u in
      let rec go n =
        if n > 30 then Alcotest.fail "no convergence"
        else
          match Strategy.choose strategy st with
          | None -> ()
          | Some i ->
              Alcotest.(check bool)
                (Strategy.name strategy ^ " proposes informative")
                true (State.informative st i);
              State.label st i (label_of goal i);
              go (n + 1)
      in
      go 0)
    (strategies ())

let test_inference_recovers_goal () =
  List.iter
    (fun strategy ->
      let result = Inference.run u strategy (Oracle.honest ~goal) in
      Alcotest.(check bool)
        (Strategy.name strategy ^ " equivalent")
        true
        (Inference.verified u ~goal result);
      Alcotest.(check bool) "positive interactions" true (result.n_interactions > 0))
    (strategies ())

let test_inference_random_goals () =
  let prng = Prng.create 11 in
  let predicates = Omega.all_predicates omega in
  for _ = 1 to 40 do
    let goal = Prng.pick_list prng predicates in
    List.iter
      (fun strategy ->
        let result = Inference.run u strategy (Oracle.honest ~goal) in
        Alcotest.(check bool)
          (Strategy.name strategy ^ " equivalent on random goal")
          true
          (Inference.verified u ~goal result))
      (strategies ())
  done

let test_inconsistent_labeling_raises () =
  (* Every signature here is a subset of the goal {c.cid=o.ocid,
     o.oid=i.ioid}.  A positive goal class and a negative {c.cid=o.ocid}
     class make the ∅ class certain negative by Lemma 3.4, so a positive
     label on it must be rejected. *)
  let cls s =
    match Universe.find_class u s with
    | Some i -> i
    | None -> Alcotest.fail ("no class " ^ Omega.pred_to_string omega s)
  in
  let st = State.create u in
  State.label st (cls goal) Sample.Positive;
  State.label st (cls (Omega.of_names_kary omega [ ("c.cid", "o.ocid") ])) Sample.Negative;
  let empty = cls (Omega.empty omega) in
  Alcotest.(check (option Fixtures.label_testable))
    "∅ class certain negative" (Some Sample.Negative) (State.certain_label st empty);
  Alcotest.check_raises "contradiction raises"
    (State.Inconsistent { class_id = empty; label = Sample.Positive })
    (fun () -> State.label st empty Sample.Positive)

let test_budget () =
  let result =
    Inference.run ~max_interactions:1 u Strategy.bu (Oracle.honest ~goal)
  in
  Alcotest.(check int) "budget respected" 1 result.n_interactions;
  Alcotest.(check bool) "halted early" false result.halted

let test_longer_chain () =
  (* Four relations. *)
  let r4 = rel "w" [ "wid" ] [ [ 10 ]; [ 99 ] ] in
  let u4 = Universe.build ~edges:(chain 4) [ r1; r2; r3; r4 ] in
  let omega4 = Universe.omega u4 in
  Alcotest.(check int) "three edges" 3 (Array.length (Omega.blocks omega4));
  let goal4 =
    Omega.of_names_kary omega4
      [ ("c.cid", "o.ocid"); ("o.oid", "i.ioid"); ("i.ioid", "w.wid") ]
  in
  List.iter
    (fun strategy ->
      let result = Inference.run u4 strategy (Oracle.honest ~goal:goal4) in
      Alcotest.(check bool)
        (Strategy.name strategy ^ " four-relation chain")
        true
        (Inference.verified u4 ~goal:goal4 result))
    (strategies ())

let suite =
  [
    Alcotest.test_case "build shape" `Quick test_build_shape;
    Alcotest.test_case "build validation" `Quick test_build_validation;
    Alcotest.test_case "path selection" `Quick test_selects;
    Alcotest.test_case "certainty vs brute force" `Quick test_certainty_vs_brute;
    Alcotest.test_case "only informative proposed" `Quick test_only_informative_proposed;
    Alcotest.test_case "inference recovers FK chain" `Quick test_inference_recovers_goal;
    Alcotest.test_case "inference on random goals" `Quick test_inference_random_goals;
    Alcotest.test_case "inconsistent labeling raises" `Quick test_inconsistent_labeling_raises;
    Alcotest.test_case "interaction budget" `Quick test_budget;
    Alcotest.test_case "four-relation chain" `Quick test_longer_chain;
  ]
