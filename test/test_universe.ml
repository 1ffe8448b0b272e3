(* The signature quotient of the Cartesian product. *)

open Fixtures
module Bits = Jqi_util.Bits
module Relation = Jqi_relational.Relation
module Tuple = Jqi_relational.Tuple
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module Tsig = Jqi_core.Tsig

let test_example_2_1_classes () =
  (* Example 2.1: all 12 tuples have distinct signatures (§5.3). *)
  Alcotest.(check int) "12 classes" 12 (Universe.n_classes universe0);
  Alcotest.(check int) "12 tuples" 12 (Universe.total_tuples universe0);
  Array.iter
    (fun (c : Universe.cls) -> Alcotest.(check int) "count 1" 1 c.count)
    (Universe.classes universe0)

let test_join_ratio_example () =
  (* §5.3 computes the join ratio of Example 2.1 as exactly 2. *)
  Alcotest.(check (float 1e-9)) "join ratio 2" 2.0 (Universe.join_ratio universe0)

let test_grouping () =
  (* Duplicate rows collapse into one class with multiplicity. *)
  let r =
    Relation.of_list ~name:"r" ~schema:(Schema.of_names ~ty:Value.TInt [ "a" ])
      [ Tuple.ints [ 1 ]; Tuple.ints [ 1 ]; Tuple.ints [ 2 ] ]
  in
  let p =
    Relation.of_list ~name:"p" ~schema:(Schema.of_names ~ty:Value.TInt [ "b" ])
      [ Tuple.ints [ 1 ] ]
  in
  let u = Universe.build [ r; p ] in
  Alcotest.(check int) "2 classes" 2 (Universe.n_classes u);
  Alcotest.(check int) "3 tuples" 3 (Universe.total_tuples u);
  let matching =
    Option.get (Universe.find_class u (Omega.of_pairs (Universe.omega u) [ (0, 0) ]))
  in
  Alcotest.(check int) "multiplicity 2" 2 (Universe.count u matching)

let test_representative () =
  match Universe.representative universe0 (class0 (2, 2)) with
  | None -> Alcotest.fail "expected representative"
  | Some [| tr; tp |] ->
      Alcotest.check tuple_testable "left rep" (Tuple.ints [ 0; 2 ]) tr;
      Alcotest.check tuple_testable "right rep" (Tuple.ints [ 0; 1; 2 ]) tp
  | Some _ -> Alcotest.fail "expected one tuple per relation"

let test_selected_classes () =
  (* θ1 = {(A1,B1),(A2,B3)} selects exactly (t2,t'2) and (t4,t'1)
     (Example 2.1's join results). *)
  let sel = Universe.selected_classes universe0 (pred0 [ (0, 0); (1, 2) ]) in
  Alcotest.(check (list int)) "selected"
    (List.sort compare [ class0 (2, 2); class0 (4, 1) ])
    (List.sort compare sel);
  (* Ω selects nothing here, ∅ selects everything. *)
  Alcotest.(check int) "omega selects none" 0
    (List.length (Universe.selected_classes universe0 (Omega.full omega0)));
  Alcotest.(check int) "empty selects all" 12
    (List.length (Universe.selected_classes universe0 (Omega.empty omega0)))

let test_equivalent () =
  (* §3.3: on the single-tuple instance R1/P1, every predicate over Ω is
     instance-equivalent to the goal. *)
  let r1 =
    Relation.of_list ~name:"R1" ~schema:(Schema.of_names ~ty:Value.TInt [ "A1"; "A2" ])
      [ Tuple.ints [ 1; 1 ] ]
  in
  let p1 =
    Relation.of_list ~name:"P1" ~schema:(Schema.of_names ~ty:Value.TInt [ "B1" ])
      [ Tuple.ints [ 1 ] ]
  in
  let u = Universe.build [ r1; p1 ] in
  let o = Universe.omega u in
  List.iter
    (fun theta ->
      Alcotest.(check bool) "all equivalent" true
        (Universe.equivalent u theta (Omega.of_pairs o [ (0, 0) ])))
    (Omega.all_predicates o);
  (* On Example 2.1, θ1 and θ2 of Example 2.1 are NOT equivalent. *)
  Alcotest.(check bool) "different joins differ" false
    (Universe.equivalent universe0
       (pred0 [ (0, 0); (1, 2) ])
       (pred0 [ (1, 1) ]))

let test_signature_consistency () =
  (* Every class signature equals T of its representative. *)
  for i = 0 to Universe.n_classes universe0 - 1 do
    match Universe.representative universe0 i with
    | None -> Alcotest.fail "no representative"
    | Some tuples ->
        Alcotest.check bits_testable "sig = T(rep)"
          (Universe.signature universe0 i)
          (Tsig.of_ktuples omega0 tuples)
  done

let test_of_signature_list_merges () =
  let o = Omega.create ~n:2 ~m:2 () in
  let s = Omega.of_pairs o [ (0, 0) ] in
  let u =
    Universe.of_signature_list o
      [ (s, 2, [| 0; 0 |]); (s, 3, [| 1; 1 |]); (Omega.empty o, 1, [| 0; 1 |]) ]
  in
  Alcotest.(check int) "merged classes" 2 (Universe.n_classes u);
  Alcotest.(check int) "total" 6 (Universe.total_tuples u)

let test_empty_product_rejected () =
  let r =
    Relation.of_list ~name:"r" ~schema:(Schema.of_names ~ty:Value.TInt [ "a" ]) []
  in
  let p =
    Relation.of_list ~name:"p" ~schema:(Schema.of_names ~ty:Value.TInt [ "b" ])
      [ Tuple.ints [ 1 ] ]
  in
  Alcotest.(check bool) "raises" true
    (try ignore (Universe.build [ r; p ]); false with Invalid_argument _ -> true)

let test_build_equals_naive () =
  (* Identical universes — classes, counts and representatives — from the
     default builder and the per-pair reference scan, on Example 2.1 and
     on a bigger synthetic instance. *)
  let check_same u1 u2 =
    Alcotest.(check int) "same class count" (Universe.n_classes u1)
      (Universe.n_classes u2);
    for i = 0 to Universe.n_classes u1 - 1 do
      Alcotest.check Fixtures.bits_testable "same signature"
        (Universe.signature u1 i) (Universe.signature u2 i);
      Alcotest.(check int) "same count" (Universe.count u1 i)
        (Universe.count u2 i);
      Alcotest.(check (array int)) "same representative"
        (Universe.cls u1 i).Universe.rep (Universe.cls u2 i).Universe.rep
    done
  in
  check_same universe0 (Universe.build_naive r0 p0);
  let prng = Jqi_util.Prng.create 31 in
  let rs, ps = Jqi_synth.Synth.generate prng (Jqi_synth.Synth.config 3 3 60 20) in
  check_same (Universe.build [ rs; ps ]) (Universe.build_naive rs ps)

let suite =
  [
    Alcotest.test_case "example 2.1 classes" `Quick test_example_2_1_classes;
    Alcotest.test_case "build = build_naive" `Quick test_build_equals_naive;
    Alcotest.test_case "join ratio (§5.3 example)" `Quick test_join_ratio_example;
    Alcotest.test_case "grouping with multiplicity" `Quick test_grouping;
    Alcotest.test_case "representative" `Quick test_representative;
    Alcotest.test_case "selected classes" `Quick test_selected_classes;
    Alcotest.test_case "instance equivalence" `Quick test_equivalent;
    Alcotest.test_case "signatures match representatives" `Quick test_signature_consistency;
    Alcotest.test_case "of_signature_list merges" `Quick test_of_signature_list_merges;
    Alcotest.test_case "empty product rejected" `Quick test_empty_product_rejected;
  ]
