(* Inference state: consistency (Example 3.1), certain tuples (§3.4), and
   the Lemma 3.2-3.4 characterizations cross-checked against brute force. *)

open Fixtures
module Bits = Jqi_util.Bits
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Sample = Jqi_core.Sample
module Brute = Jqi_core.Brute

let label_class st ij lbl = State.label st (class0 ij) lbl

let state_with examples =
  let st = State.create universe0 in
  List.iter (fun (ij, lbl) -> label_class st ij lbl) examples;
  st

(* Example 3.1: S0 = {(t2,t'2)+, (t4,t'1)+, (t3,t'2)−} is consistent with
   most specific predicate {(A1,B1),(A2,B3)}. *)
let test_example_3_1_consistent () =
  let st =
    state_with
      [
        ((2, 2), Sample.Positive); ((4, 1), Sample.Positive); ((3, 2), Sample.Negative);
      ]
  in
  Alcotest.(check bool) "consistent" true (State.consistent st);
  Alcotest.check bits_testable "most specific" (pred0 [ (0, 0); (1, 2) ])
    (State.inferred st)

(* Example 3.1's inconsistent sample S0': T(S'+) = ∅ selects the negative
   (t3,t'1). *)
let test_example_3_1_inconsistent () =
  let st =
    state_with [ ((1, 2), Sample.Positive); ((1, 3), Sample.Positive) ]
  in
  (* (t3,t'1) has signature ∅ and is now certain positive: labeling it
     negative must raise. *)
  Alcotest.check_raises "inconsistent labeling rejected"
    (State.Inconsistent { class_id = class0 (3, 1); label = Sample.Negative })
    (fun () -> label_class st (3, 1) Sample.Negative)

(* §3.4: with goal {(A2,B3)} and S = {(t2,t'2)+, (t1,t'3)−}, the examples
   ((t4,t'1),+) and ((t2,t'1),−) are uninformative. *)
let test_section_3_4_uninformative () =
  let st =
    state_with [ ((2, 2), Sample.Positive); ((1, 3), Sample.Negative) ]
  in
  Alcotest.(check (option label_testable))
    "(t4,t'1) certain positive" (Some Sample.Positive)
    (State.certain_label st (class0 (4, 1)));
  Alcotest.(check (option label_testable))
    "(t2,t'1) certain negative" (Some Sample.Negative)
    (State.certain_label st (class0 (2, 1)));
  Alcotest.(check bool)
    "(t3,t'2) informative" true
    (State.informative st (class0 (3, 2)))

(* Lemma 3.2 + 3.3 + 3.4 against the brute-force definitions, over every
   class of the Example 2.1 universe and a spread of samples. *)
let samples_for_cross_check =
  [
    [];
    [ ((2, 2), Sample.Positive) ];
    [ ((3, 1), Sample.Negative) ];
    [ ((2, 2), Sample.Positive); ((1, 3), Sample.Negative) ];
    [ ((1, 3), Sample.Positive); ((3, 1), Sample.Negative) ];
    [ ((2, 2), Sample.Positive); ((4, 1), Sample.Positive); ((3, 2), Sample.Negative) ];
  ]

let test_lemmas_vs_brute () =
  List.iter
    (fun examples ->
      let st = state_with examples in
      let cs = Brute.consistent_with_state st in
      Alcotest.(check bool) "C(S) nonempty" true (cs <> []);
      for i = 0 to Universe.n_classes universe0 - 1 do
        let s = Universe.signature universe0 i in
        Alcotest.(check (option label_testable))
          (Printf.sprintf "class %d certain label" i)
          (Brute.certain_label_def cs s)
          (State.certain_label st i)
      done)
    samples_for_cross_check

(* Lemma 3.2: the goal-dependent Uninf(S) definition agrees with Cert(S)
   (which is goal-independent), for several goals. *)
let test_uninf_equals_cert () =
  let goals =
    [ pred0 []; pred0 [ (1, 2) ]; pred0 [ (0, 0); (1, 2) ]; pred0 [ (0, 2) ] ]
  in
  List.iter
    (fun goal ->
      (* Build the sample the honest user would give on two probe tuples. *)
      let st = State.create universe0 in
      let oracle = Jqi_core.Oracle.honest ~goal in
      List.iter
        (fun ij ->
          let c = class0 ij in
          State.label st c (Jqi_core.Oracle.label oracle universe0 c))
        [ (2, 2); (1, 3) ];
      let pos =
        List.filter_map
          (fun (i, l) ->
            if l = Sample.Positive then Some (Universe.signature universe0 i)
            else None)
          (State.history st)
      in
      let neg = State.negatives st in
      for i = 0 to Universe.n_classes universe0 - 1 do
        let s = Universe.signature universe0 i in
        let by_def = Brute.uninformative_def omega0 ~pos ~neg ~goal s in
        let by_cert = State.certain_label st i in
        (* Uninformative by definition iff certain; and when both are
           defined the labels agree (the goal's label is the certain one). *)
        Alcotest.(check bool)
          (Printf.sprintf "uninf=cert class %d" i)
          (by_def <> None) (by_cert <> None);
        (match (by_def, by_cert) with
        | Some a, Some b -> Alcotest.check label_testable "labels agree" a b
        | _ -> ())
      done)
    goals

let test_uninf_count () =
  (* §4.4 walk-through: S = {(t1,t'3)+, (t3,t'1)−} has 5 uninformative
     tuples besides the 2 labeled ones. *)
  let st =
    state_with [ ((1, 3), Sample.Positive); ((3, 1), Sample.Negative) ]
  in
  Alcotest.(check int) "uninf + labeled" 7 (State.uninf_tuples st);
  Alcotest.(check int) "informative left" 5
    (List.length (State.informative_classes st))

let test_extend_virtual_does_not_mutate () =
  let st = state_with [ ((2, 2), Sample.Positive) ] in
  let before = State.tpos st in
  let s = Universe.signature universe0 (class0 (1, 1)) in
  let tpos', negs' = State.extend_virtual st [ (s, Sample.Negative) ] in
  Alcotest.check bits_testable "tpos unchanged" before (State.tpos st);
  Alcotest.check bits_testable "virtual tpos same for negative" before tpos';
  Alcotest.(check int) "virtual negs grew" 1 (List.length negs')

(* Certainty is monotone in the sample — the invariant the lookahead
   optimization rests on (Entropy scans only currently-informative
   classes): once certain, a class stays certain under any consistent
   extension. *)
let test_certainty_monotone () =
  let prng = Jqi_util.Prng.create 55 in
  for _ = 1 to 100 do
    let goal =
      Universe.signature universe0 (Jqi_util.Prng.int prng (Universe.n_classes universe0))
    in
    let oracle = Jqi_core.Oracle.honest ~goal in
    let st = State.create universe0 in
    let certain_before = ref [] in
    for _ = 1 to 4 do
      certain_before :=
        List.filter
          (fun i -> State.certain_label st i <> None)
          (List.init (Universe.n_classes universe0) Fun.id);
      (match State.informative_classes st with
      | [] -> ()
      | is ->
          let c = Jqi_util.Prng.pick_list prng is in
          State.label st c (Jqi_core.Oracle.label oracle universe0 c));
      List.iter
        (fun i ->
          Alcotest.(check bool) "stays certain" true
            (State.certain_label st i <> None))
        !certain_before
    done
  done

(* uninf_tuples is monotone along a run, and bounded by |D|. *)
let test_uninf_monotone () =
  let goal = pred0 [ (0, 2) ] in
  let oracle = Jqi_core.Oracle.honest ~goal in
  let st = State.create universe0 in
  let prev = ref (State.uninf_tuples st) in
  let rec go () =
    match State.informative_classes st with
    | [] -> ()
    | c :: _ ->
        State.label st c (Jqi_core.Oracle.label oracle universe0 c);
        let now = State.uninf_tuples st in
        Alcotest.(check bool) "monotone" true (now >= !prev);
        Alcotest.(check bool) "bounded" true
          (now <= Universe.total_tuples universe0);
        prev := now;
        go ()
  in
  go ()

let test_pp_smoke () =
  let st = state_with [ ((2, 2), Sample.Positive) ] in
  Alcotest.(check bool) "state pp" true
    (String.length (Fmt.str "%a" State.pp st) > 0);
  Alcotest.(check bool) "universe pp" true
    (String.length (Fmt.str "%a" Universe.pp universe0) > 0);
  Alcotest.(check bool) "relation pp" true
    (String.length (Fmt.str "%a" Jqi_relational.Relation.pp Fixtures.r0) > 0)

(* The fused Lemma 3.4 test equals its allocating form
   (T(S+) ∩ T(t) ⊆ some T(t')) at multi-word widths.  Half of the
   negatives contain T(t) plus noise, so both outcomes are drawn. *)
let certain_neg_sig_matches_allocating =
  let gen =
    QCheck.Gen.(
      let* w = int_range 64 200 in
      let set n = map (Bits.of_list w) (list_size n (int_bound (w - 1))) in
      let* tpos = map Bits.complement (set (int_bound 40)) in
      let* s = set (int_range 1 30) in
      let neg =
        let* noise = set (int_bound 30) in
        let* dropped = set (int_bound 2) in
        let* near = bool in
        if near then return (Bits.diff (Bits.union s noise) dropped) else return noise
      in
      let* negs = list_size (int_bound 5) neg in
      return (tpos, negs, s))
  in
  let print (tpos, negs, s) =
    Printf.sprintf "w=%d tpos=%s negs=[%s] s=%s" (Bits.width s) (Bits.to_string tpos)
      (String.concat ";" (List.map Bits.to_string negs))
      (Bits.to_string s)
  in
  QCheck.Test.make ~name:"certain_neg_sig = allocating Lemma 3.4 test (wide)"
    ~count:500 (QCheck.make gen ~print) (fun (tpos, negs, s) ->
      let restricted = Bits.inter tpos s in
      State.certain_neg_sig ~tpos ~negs s
      = List.exists (fun neg -> Bits.subset restricted neg) negs)

let suite =
  [
    Alcotest.test_case "example 3.1 consistent sample" `Quick test_example_3_1_consistent;
    Alcotest.test_case "certainty monotone" `Quick test_certainty_monotone;
    Alcotest.test_case "uninf count monotone" `Quick test_uninf_monotone;
    Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
    Alcotest.test_case "example 3.1 inconsistent sample" `Quick test_example_3_1_inconsistent;
    Alcotest.test_case "section 3.4 uninformative examples" `Quick test_section_3_4_uninformative;
    Alcotest.test_case "lemmas 3.3/3.4 vs brute force" `Quick test_lemmas_vs_brute;
    Alcotest.test_case "lemma 3.2 Uninf = Cert" `Quick test_uninf_equals_cert;
    Alcotest.test_case "uninformative count (4.4 walk-through)" `Quick test_uninf_count;
    Alcotest.test_case "extend_virtual is pure" `Quick test_extend_virtual_does_not_mutate;
    QCheck_alcotest.to_alcotest certain_neg_sig_matches_allocating;
  ]
