(* Synthetic generator (§5.2): configuration validation, value ranges,
   determinism, and the goal-predicate enumeration. *)

module Value = Jqi_relational.Value
module Relation = Jqi_relational.Relation
module Tuple = Jqi_relational.Tuple
module Synth = Jqi_synth.Synth
module Universe = Jqi_core.Universe
module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng

let test_config_validation () =
  Alcotest.(check bool) "zero arity rejected" true
    (try ignore (Synth.config 0 3 50 100); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero values rejected" true
    (try ignore (Synth.config 2 3 50 0); false with Invalid_argument _ -> true)

let test_shapes_and_ranges () =
  let prng = Prng.create 4 in
  let c = Synth.config 3 4 20 5 in
  let r, p = Synth.generate prng c in
  Alcotest.(check int) "r arity" 3 (Relation.arity r);
  Alcotest.(check int) "p arity" 4 (Relation.arity p);
  Alcotest.(check int) "r rows" 20 (Relation.cardinality r);
  Alcotest.(check int) "p rows" 20 (Relation.cardinality p);
  List.iter
    (fun rel ->
      Relation.iter
        (fun t ->
          Array.iter
            (function
              | Value.Int i ->
                  Alcotest.(check bool) "value in range" true (i >= 0 && i < 5)
              | _ -> Alcotest.fail "non-int value")
            t)
        rel)
    [ r; p ]

let test_deterministic () =
  let c = Synth.config 2 2 10 10 in
  let r1, p1 = Synth.generate (Prng.create 8) c in
  let r2, p2 = Synth.generate (Prng.create 8) c in
  Alcotest.(check bool) "same r" true (Relation.equal_contents r1 r2);
  Alcotest.(check bool) "same p" true (Relation.equal_contents p1 p2)

let test_paper_configs () =
  Alcotest.(check int) "six configs" 6 (List.length Synth.paper_configs);
  let c = List.hd Synth.paper_configs in
  Alcotest.(check int) "first is (3,3,100,100)" 100 c.rows

let test_goals_of_size () =
  let prng = Prng.create 12 in
  let r, p = Synth.generate prng (Synth.config 2 2 15 3) in
  let u = Universe.build [ r; p ] in
  (* Size 0: exactly the empty predicate (some tuple always realizes a
     signature ⊇ ∅). *)
  (match Synth.goals_of_size u ~size:0 with
  | [ g ] -> Alcotest.(check bool) "empty goal" true (Bits.is_empty g)
  | l -> Alcotest.failf "expected one size-0 goal, got %d" (List.length l));
  (* Every size-k goal is non-nullable and has cardinality k; the list is
     duplicate-free. *)
  let sigs = Universe.signatures u in
  for size = 1 to 3 do
    let goals = Synth.goals_of_size u ~size in
    List.iter
      (fun g ->
        Alcotest.(check int) "cardinality" size (Bits.cardinal g);
        Alcotest.(check bool) "non-nullable" true
          (List.exists (fun s -> Bits.subset g s) sigs))
      goals;
    let distinct =
      List.fold_left
        (fun acc g -> if List.exists (Bits.equal g) acc then acc else g :: acc)
        [] goals
    in
    Alcotest.(check int) "distinct" (List.length goals) (List.length distinct)
  done

let test_goals_complete () =
  (* goals_of_size finds *all* non-nullable predicates of each size:
     cross-check against direct enumeration of PP(Ω). *)
  let prng = Prng.create 21 in
  let r, p = Synth.generate prng (Synth.config 2 2 10 2) in
  let u = Universe.build [ r; p ] in
  let sigs = Universe.signatures u in
  let omega = Universe.omega u in
  for size = 0 to 4 do
    let expected =
      List.filter
        (fun theta ->
          Bits.cardinal theta = size
          && List.exists (fun s -> Bits.subset theta s) sigs)
        (Jqi_core.Omega.all_predicates omega)
    in
    Alcotest.(check int)
      (Printf.sprintf "complete at size %d" size)
      (List.length expected)
      (List.length (Synth.goals_of_size u ~size))
  done

let test_join_ratio_calibration () =
  (* Regression guard for the generator: the paper's measured join ratios
     are the strongest validation (EXPERIMENTS.md); keep ours in their
     neighbourhood.  Deterministic via the fixed seed. *)
  let mean_ratio config =
    let prng = Prng.create 2014 in
    let acc = ref 0. in
    let runs = 15 in
    for _ = 1 to runs do
      let r, p = Synth.generate prng config in
      acc := !acc +. Universe.join_ratio (Universe.build [ r; p ])
    done;
    !acc /. float_of_int runs
  in
  List.iter
    (fun (config, paper) ->
      let ours = mean_ratio config in
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.3f near paper %.3f" ours paper)
        true
        (Float.abs (ours -. paper) < 0.25))
    [
      (Synth.config 3 3 100 100, 1.647);
      (Synth.config 3 3 50 100, 1.341);
      (Synth.config 3 4 50 100, 1.458);
      (Synth.config 2 5 50 100, 1.377);
      (Synth.config 2 4 50 50, 1.596);
    ]

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "shapes and value ranges" `Quick test_shapes_and_ranges;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "paper configs" `Quick test_paper_configs;
    Alcotest.test_case "goals_of_size invariants" `Quick test_goals_of_size;
    Alcotest.test_case "goals_of_size complete" `Quick test_goals_complete;
    Alcotest.test_case "join ratio calibration" `Quick test_join_ratio_calibration;
  ]
