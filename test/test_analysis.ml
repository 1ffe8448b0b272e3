(* Instance analysis (§5.3-derived pre-flight report). *)

open Fixtures
module Analysis = Jqi_core.Analysis
module Universe = Jqi_core.Universe

let a0 = Analysis.analyze universe0

let test_example_2_1_numbers () =
  Alcotest.(check int) "product" 12 a0.product_size;
  Alcotest.(check int) "classes" 12 a0.n_classes;
  Alcotest.(check (float 1e-9)) "join ratio" 2.0 a0.join_ratio;
  Alcotest.(check int) "max size" 3 a0.max_signature_size;
  (* Figure 3: 1 empty, 1 singleton, 7 pairs, 3 triples. *)
  Alcotest.(check bool) "histogram" true
    (Array.to_list a0.size_histogram = [ (0, 1); (1, 1); (2, 7); (3, 3) ]);
  Alcotest.(check int) "maximal" 7 a0.n_maximal;
  Alcotest.(check bool) "empty signature" true a0.has_empty_signature;
  Alcotest.(check (option int)) "lattice count" (Some 22) a0.non_nullable_count

let test_histogram_sums_to_classes () =
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 a0.size_histogram in
  Alcotest.(check int) "sums" a0.n_classes total

let test_recommendation_regimes () =
  (* Flat lattice (join ratio 1) → TD; Example 2.1 (ratio 2) → L2S. *)
  let flat =
    let module R = Jqi_relational.Relation in
    let module T = Jqi_relational.Tuple in
    let module S = Jqi_relational.Schema in
    Universe.build
      [
        R.of_list ~name:"r" ~schema:(S.of_names ~ty:Jqi_relational.Value.TInt [ "a" ])
          [ T.ints [ 1 ]; T.ints [ 2 ] ];
        R.of_list ~name:"p" ~schema:(S.of_names ~ty:Jqi_relational.Value.TInt [ "b" ])
          [ T.ints [ 1 ] ];
      ]
  in
  let fa = Analysis.analyze flat in
  Alcotest.(check bool) "flat recommends TD" true
    (String.length fa.recommendation > 2 && String.sub fa.recommendation 0 2 = "TD");
  Alcotest.(check bool) "rich recommends L2S" true
    (String.length a0.recommendation > 3 && String.sub a0.recommendation 0 3 = "L2S")

let test_large_class_count_recommendation () =
  (* > 400 classes triggers the L2S-cost warning branch. *)
  let omega = Jqi_core.Omega.create ~n:2 ~m:5 () in
  let sigs =
    List.init 500 (fun k ->
        (* 500 distinct subsets of the 10-bit universe. *)
        let bits =
          List.filter (fun b -> (k + 1) lsr b land 1 = 1) (List.init 10 Fun.id)
        in
        (Jqi_util.Bits.of_list 10 bits, 1, [| k; 0 |]))
  in
  let u = Universe.of_signature_list omega sigs in
  let a = Analysis.analyze u in
  Alcotest.(check bool) "many classes" true (a.n_classes > 400);
  Alcotest.(check bool) "recommends TD or L1S" true
    (String.length a.recommendation >= 9
    && String.sub a.recommendation 0 9 = "TD or L1S")

let test_pp () =
  Alcotest.(check bool) "pp nonempty" true
    (String.length (Fmt.str "%a" Analysis.pp a0) > 0)

let suite =
  [
    Alcotest.test_case "example 2.1 numbers" `Quick test_example_2_1_numbers;
    Alcotest.test_case "histogram consistency" `Quick test_histogram_sums_to_classes;
    Alcotest.test_case "recommendation regimes" `Quick test_recommendation_regimes;
    Alcotest.test_case "large class count" `Quick test_large_class_count_recommendation;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
