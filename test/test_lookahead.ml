(* The lookahead acceleration layer, gated end-to-end by a differential
   oracle: the fast engine (incremental certainty views, canonical-state
   memoization, skyline pruning) must return the
   same entropies and make the same choices as [Entropy.reference_k], the
   direct transcription of Algorithms 4/5, on randomized universes — plus
   seeded regressions pinning the paper's Figure 5 and §4.4 values. *)

open Fixtures
module Bits = Jqi_util.Bits
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Sample = Jqi_core.Sample
module Entropy = Jqi_core.Entropy
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Minimax = Jqi_core.Minimax

(* ------------------------------------------------------------------ *)
(* Random-universe scenarios.                                          *)
(* ------------------------------------------------------------------ *)

(* A scenario describes a universe over Ω = n × m (signatures as
   bitmasks with multiplicities), a label recipe replayed consistently
   (certain or already-labeled picks are skipped, so the sample can never
   become inconsistent), and a goal predicate for full-run properties. *)
type scenario = {
  n : int;
  m : int;
  sigs : (int * int) list; (* (signature bitmask, multiplicity) *)
  labels : (int * bool) list; (* (class pick, positive?) *)
  goal : int; (* goal predicate bitmask *)
}

let bits_of_mask w mask =
  Bits.of_list w (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init w Fun.id))

let universe_of_scenario sc =
  let omega = Omega.create ~n:sc.n ~m:sc.m () in
  let w = Omega.width omega in
  ( omega,
    Universe.of_signature_list omega
      (List.map (fun (mask, count) -> (bits_of_mask w mask, count, [| 0; 0 |])) sc.sigs) )

let state_of_scenario u sc =
  let st = State.create u in
  List.iter
    (fun (pick, positive) ->
      let i = pick mod Universe.n_classes u in
      if State.label_of st i = None && State.certain_label st i = None then
        State.label st i (Sample.label_of_bool positive))
    sc.labels;
  st

let gen_scenario =
  QCheck.Gen.(
    let* n = int_range 1 3 and* m = int_range 1 3 in
    let w = n * m in
    let* n_classes = int_range 1 12 in
    let* sigs =
      list_size (return n_classes)
        (pair (int_bound ((1 lsl w) - 1)) (int_range 1 4))
    in
    let* labels = list_size (int_bound 3) (pair (int_bound 64) bool) in
    let* goal = int_bound ((1 lsl w) - 1) in
    return { n; m; sigs; labels; goal })

let print_scenario sc =
  Printf.sprintf "n=%d m=%d sigs=[%s] labels=[%s] goal=%#x" sc.n sc.m
    (String.concat ";"
       (List.map (fun (s, c) -> Printf.sprintf "%#x*%d" s c) sc.sigs))
    (String.concat ";"
       (List.map (fun (i, b) -> Printf.sprintf "%d%c" i (if b then '+' else '-')) sc.labels))
    sc.goal

let arb_scenario = QCheck.make gen_scenario ~print:print_scenario

(* ------------------------------------------------------------------ *)
(* Differential properties: fast engine vs the reference oracle.       *)
(* ------------------------------------------------------------------ *)

(* The acceptance gate: ≥ 500 randomized universes where every informative
   class gets identical entropy^k from both engines, for k = 1 and 2, and
   the fast round scorer's exact entries agree too. *)
let entropy_matches_reference =
  QCheck.Test.make ~name:"fast entropy_k = reference_k (k=1,2)" ~count:500
    arb_scenario (fun sc ->
      let _, u = universe_of_scenario sc in
      let st = state_of_scenario u sc in
      let is = State.informative_classes st in
      List.for_all
        (fun k ->
          List.for_all
            (fun i -> Entropy.equal (Entropy.entropy_k st k i) (Entropy.reference_k st k i))
            is
          && List.for_all
               (fun (i, e) ->
                 match e with
                 | None -> true
                 | Some e -> Entropy.equal e (Entropy.reference_k st k i))
               (Entropy.score st ~k))
        [ 1; 2 ])

let entropy3_matches_reference =
  QCheck.Test.make ~name:"fast entropy_k = reference_k (k=3)" ~count:60
    arb_scenario (fun sc ->
      let _, u = universe_of_scenario sc in
      let st = state_of_scenario u sc in
      List.for_all
        (fun i -> Entropy.equal (Entropy.entropy_k st 3 i) (Entropy.reference_k st 3 i))
        (State.informative_classes st))

(* Fast and reference skylines agree on the chosen class at every round of
   a full inference run — the trace (class, label) lists are identical. *)
let trace strategy u goal =
  let result = Inference.run u strategy (Oracle.honest ~goal) in
  result.Inference.steps

let strategy_choices_match_reference =
  QCheck.Test.make ~name:"fast LkS runs = reference LkS runs (k=1,2)" ~count:150
    arb_scenario (fun sc ->
      let omega, u = universe_of_scenario sc in
      let goal = bits_of_mask (Omega.width omega) sc.goal in
      List.for_all
        (fun k -> trace (Strategy.lks k) u goal = trace (Strategy.lks_reference k) u goal)
        [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Canonicalization: idempotence and state-equivalence.                *)
(* ------------------------------------------------------------------ *)

type key_case = { kw : int; ktpos : int; knegs : int list; kprobe : int list }

let gen_key_case =
  QCheck.Gen.(
    let* kw = int_range 1 9 in
    let top = (1 lsl kw) - 1 in
    let* ktpos = int_bound top in
    let* knegs = list_size (int_bound 5) (int_bound top) in
    let* kprobe = list_size (int_range 1 8) (int_bound top) in
    return { kw; ktpos; knegs; kprobe })

let arb_key_case =
  QCheck.make gen_key_case ~print:(fun c ->
      Printf.sprintf "w=%d tpos=%#x negs=[%s]" c.kw c.ktpos
        (String.concat ";" (List.map (Printf.sprintf "%#x") c.knegs)))

let canonical_idempotent =
  QCheck.Test.make ~name:"Minimax.canonical is idempotent" ~count:300
    arb_key_case (fun c ->
      let tpos = bits_of_mask c.kw c.ktpos in
      let negs = List.map (bits_of_mask c.kw) c.knegs in
      let k = Minimax.canonical ~tpos ~negs in
      let k' = Minimax.canonical ~tpos:k.State.Key.tpos ~negs:k.State.Key.negs in
      State.Key.equal k k')

(* Canonical keys preserve the certain sets: every probe signature gets
   the same certain label under (tpos, negs) and under the canonical
   antichain — the soundness of memoizing lookahead values on the key. *)
let canonical_state_equivalent =
  QCheck.Test.make ~name:"canonical key preserves certain labels" ~count:300
    arb_key_case (fun c ->
      let tpos = bits_of_mask c.kw c.ktpos in
      let negs = List.map (bits_of_mask c.kw) c.knegs in
      let k = Minimax.canonical ~tpos ~negs in
      List.for_all
        (fun mask ->
          let s = bits_of_mask c.kw mask in
          State.certain_label_sig ~tpos ~negs s
          = State.certain_label_sig ~tpos:k.State.Key.tpos ~negs:k.State.Key.negs s)
        c.kprobe)

(* The incremental view must agree with a from-scratch rescan after any
   chain of virtual extensions. *)
let view_matches_rescan =
  QCheck.Test.make ~name:"State.view_extend = full rescan" ~count:300
    arb_scenario (fun sc ->
      let omega, u = universe_of_scenario sc in
      let st = state_of_scenario u sc in
      let w = Omega.width omega in
      (* Reuse the scenario's goal mask as one extension signature and the
         first class signatures as others. *)
      let extras =
        (bits_of_mask w sc.goal, Sample.Positive)
        :: (match State.informative_classes st with
           | i :: j :: _ ->
               [ (Universe.signature u i, Sample.Negative);
                 (Universe.signature u j, Sample.Positive) ]
           | [ i ] -> [ (Universe.signature u i, Sample.Negative) ]
           | [] -> [])
      in
      let rec check view extras =
        let tpos, negs = (view.State.vtpos, view.State.vnegs) in
        let informative =
          List.filter
            (fun i ->
              State.certain_label_sig ~tpos ~negs (Universe.signature u i) = None)
            (List.init (Universe.n_classes u) Fun.id)
        in
        let weight =
          List.fold_left (fun acc i -> acc + Universe.count u i) 0 informative
        in
        view.State.vinf = informative
        && view.State.vinf_tuples = weight
        && match extras with
           | [] -> true
           | e :: rest -> check (State.view_extend st view e) rest
      in
      check (State.view st) extras)

(* L2S runs over a universe from the inverted build kernel ask the same
   questions (class, label and representative pair) as runs over the
   [build_naive] oracle. [traced_run] records each asked representative. *)
let traced_run u goal =
  List.map
    (fun (c, l) -> (c, Sample.bool_of_label l, (Universe.cls u c).Universe.rep))
    (trace Strategy.l2s u goal)

let check_l2s_build_vs_naive r p =
  let fast = Universe.build [ r; p ] and naive = Universe.build_naive r p in
  let omega = Universe.omega naive in
  let goals =
    Omega.full omega
    :: List.init (Universe.n_classes naive) (Universe.signature naive)
  in
  List.iter
    (fun goal ->
      Alcotest.(check (list (triple int bool (array int))))
        "same L2S trace" (traced_run naive goal) (traced_run fast goal))
    goals

(* Tiny inputs with fewer R rows than P rows: a single R row and a
   two-row R. Every pair matches some attribute, so neither universe has
   an empty-signature class. *)
let test_l2s_build_tiny_inputs () =
  let module Relation = Jqi_relational.Relation in
  let module Tuple = Jqi_relational.Tuple in
  let module Schema = Jqi_relational.Schema in
  let schema = Schema.of_names ~ty:Jqi_relational.Value.TInt [ "a"; "b" ] in
  let mk name rows = Relation.of_list ~name ~schema rows in
  let p = mk "p" [ Tuple.ints [ 0; 1 ]; Tuple.ints [ 1; 1 ]; Tuple.ints [ 2; 0 ] ] in
  check_l2s_build_vs_naive (mk "r1" [ Tuple.ints [ 0; 1 ] ]) p;
  check_l2s_build_vs_naive (mk "r2" [ Tuple.ints [ 0; 1 ]; Tuple.ints [ 1; 2 ] ]) p

let test_l2s_build_synthetic () =
  let prng = Jqi_util.Prng.create 2014 in
  let r, p = Jqi_synth.Synth.generate prng (Jqi_synth.Synth.config 3 3 40 20) in
  check_l2s_build_vs_naive r p

(* The relation list is the only input shape: L2S over [Universe.build]
   asks the same questions as over the k-way oracle [build_kary_naive],
   both at k = 2 (the pair kernel) and at k = 3 (the trie walk). *)
let check_l2s_build_vs_kary_naive rels =
  let fast = Universe.build rels and naive = Universe.build_kary_naive rels in
  let goals =
    Omega.full (Universe.omega naive)
    :: List.init (Universe.n_classes naive) (Universe.signature naive)
  in
  List.for_all (fun goal -> traced_run naive goal = traced_run fast goal) goals

let l2s_build_vs_kary_naive_pairs =
  QCheck.Test.make ~name:"L2S on build [r; p] = build_kary_naive [r; p]"
    ~count:20 QCheck.small_nat (fun seed ->
      let prng = Jqi_util.Prng.create seed in
      let r, p = Jqi_synth.Synth.generate prng (Jqi_synth.Synth.config 2 2 8 3) in
      check_l2s_build_vs_kary_naive [ r; p ])

let test_l2s_build_vs_kary_naive_three () =
  let module Relation = Jqi_relational.Relation in
  let module Tuple = Jqi_relational.Tuple in
  let module Schema = Jqi_relational.Schema in
  let mk name attrs rows =
    Relation.of_list ~name
      ~schema:(Schema.of_names ~ty:Jqi_relational.Value.TInt attrs)
      (List.map Tuple.ints rows)
  in
  let a = mk "a" [ "a1"; "a2" ] [ [ 0; 1 ]; [ 1; 1 ]; [ 2; 0 ] ] in
  let b = mk "b" [ "b1" ] [ [ 1 ]; [ 2 ]; [ 1 ] ] in
  let c = mk "c" [ "c1"; "c2" ] [ [ 1; 0 ]; [ 0; 2 ] ] in
  Alcotest.(check bool) "same L2S traces" true
    (check_l2s_build_vs_kary_naive [ a; b; c ])

(* ------------------------------------------------------------------ *)
(* Seeded regressions: Figure 5 and the §4.4 walk-through.             *)
(* ------------------------------------------------------------------ *)

(* Figure 5's counting convention: u± excludes the queried tuples, so the
   ∅-signature tuple (t3,t'1) has u⁺ = 11 (not 12) on the empty sample —
   pinned against both engines. *)
let test_fig5_u_plus_11_convention () =
  let st = State.create universe0 in
  let cls = class0 (3, 1) in
  Alcotest.check entropy_testable "fast engine" (Entropy.make 0 11)
    (Entropy.entropy1 st cls);
  Alcotest.check entropy_testable "reference engine" (Entropy.make 0 11)
    (Entropy.reference1 st cls)

(* Both engines reproduce the full (corrected) Figure 5 table. *)
let test_fig5_full_table_both_engines () =
  let st = State.create universe0 in
  List.iter
    (fun i ->
      Alcotest.check entropy_testable
        (Printf.sprintf "class %d" i)
        (Entropy.reference1 st i) (Entropy.entropy1 st i))
    (State.informative_classes st)

(* §4.4 walk-through: from S = {(t1,t'3)+, (t3,t'1)−}, entropy² of
   (t2,t'1) is (3,3) and L2S chooses it — fast and reference. *)
let walkthrough_state () =
  let st = State.create universe0 in
  State.label st (class0 (1, 3)) Sample.Positive;
  State.label st (class0 (3, 1)) Sample.Negative;
  st

let test_walkthrough_l2s_choices () =
  let st = walkthrough_state () in
  Alcotest.check entropy_testable "entropy² fast" (Entropy.make 3 3)
    (Entropy.entropy_k st 2 (class0 (2, 1)));
  Alcotest.check entropy_testable "entropy² reference" (Entropy.make 3 3)
    (Entropy.reference_k st 2 (class0 (2, 1)));
  List.iter
    (fun (name, strategy) ->
      match Strategy.choose strategy st with
      | Some c -> Alcotest.(check int) name (class0 (2, 1)) c
      | None -> Alcotest.fail (name ^ " returned nothing"))
    [
      ("L2S fast", Strategy.l2s);
      ("L2S reference", Strategy.lks_reference 2);
    ]

(* Full L2S inference on Example 2.1 agrees step by step across engines
   for a spread of goals. *)
let test_l2s_full_runs_example21 () =
  List.iter
    (fun goal ->
      Alcotest.(check (list (pair int bool)))
        "same trace"
        (List.map
           (fun (c, l) -> (c, Sample.bool_of_label l))
           (trace (Strategy.lks_reference 2) universe0 goal))
        (List.map
           (fun (c, l) -> (c, Sample.bool_of_label l))
           (trace Strategy.l2s universe0 goal)))
    [ pred0 []; pred0 [ (0, 2) ]; pred0 [ (0, 0); (1, 2) ]; Omega.full omega0 ]

(* ------------------------------------------------------------------ *)
(* Wide-Ω differentials: multi-word signatures and projections.        *)
(* ------------------------------------------------------------------ *)

(* The scenarios above cap Ω at 3×3 bits, so they never reach a
   multi-word [Bits], a position ≥ 63, or a round whose live positions P
   (T(S+) ∩ the union of informative signatures) need more than one word
   per projected row.  These draw Ω from 8×8 to 12×12 with sparse
   signatures: a few positions of their own plus up to two shared random
   "atoms", so subset relations between classes still occur. *)
type wide_scenario = {
  wn : int;
  wm : int;
  wsigs : (int list * int) list; (* (signature positions, multiplicity) *)
  wlabels : (int * bool) list;
  wgoal : int list;
}

let gen_wide_scenario =
  QCheck.Gen.(
    let* wn = int_range 8 12 and* wm = int_range 8 12 in
    let w = wn * wm in
    let position = int_bound (w - 1) in
    let* atoms = list_size (int_range 4 8) (list_size (int_range 3 8) position) in
    let atoms = Array.of_list atoms in
    let atom = map (Array.get atoms) (int_bound (Array.length atoms - 1)) in
    let union_of n = map List.concat (list_size n atom) in
    let signature =
      map2 ( @ ) (list_size (int_range 2 20) position) (union_of (int_range 0 2))
    in
    let* wsigs = list_size (int_range 2 12) (pair signature (int_range 1 4)) in
    let* wlabels = list_size (int_bound 3) (pair (int_bound 64) bool) in
    let* wgoal = union_of (int_bound 2) in
    return { wn; wm; wsigs; wlabels; wgoal })

let print_wide_scenario sc =
  let positions l = String.concat "," (List.map string_of_int (List.sort_uniq compare l)) in
  Printf.sprintf "n=%d m=%d sigs=[%s] labels=[%s] goal={%s}" sc.wn sc.wm
    (String.concat ";"
       (List.map (fun (s, c) -> Printf.sprintf "{%s}*%d" (positions s) c) sc.wsigs))
    (String.concat ";"
       (List.map (fun (i, b) -> Printf.sprintf "%d%c" i (if b then '+' else '-')) sc.wlabels))
    (positions sc.wgoal)

let arb_wide_scenario = QCheck.make gen_wide_scenario ~print:print_wide_scenario

let wide_universe sc =
  let omega = Omega.create ~n:sc.wn ~m:sc.wm () in
  let w = Omega.width omega in
  ( omega,
    Universe.of_signature_list omega
      (List.map (fun (s, count) -> (Bits.of_list w s, count, [| 0; 0 |])) sc.wsigs) )

let wide_state u sc =
  state_of_scenario u { n = sc.wn; m = sc.wm; sigs = []; labels = sc.wlabels; goal = 0 }

(* |P| of the round [st] is in: the live positions the lookahead scan
   projects onto. *)
let live_positions st =
  let u = State.universe st in
  let tpos = State.tpos st in
  let live =
    List.fold_left
      (fun acc i -> Bits.union acc (Universe.signature u i))
      (Bits.empty (Bits.width tpos))
      (State.informative_classes st)
  in
  Bits.cardinal (Bits.inter tpos live)

(* Rounds drawn whose projected rows take one word / several words. *)
type draws = { mutable single_word : int; mutable multi_word : int }

let count_draw draws st =
  if live_positions st > Bits.bits_per_word then draws.multi_word <- draws.multi_word + 1
  else draws.single_word <- draws.single_word + 1

let wide_entropy_matches_reference draws =
  QCheck.Test.make ~name:"wide Ω: fast entropy_k = reference_k (k=1,2)" ~count:200
    arb_wide_scenario (fun sc ->
      let _, u = wide_universe sc in
      let st = wide_state u sc in
      count_draw draws st;
      let is = State.informative_classes st in
      List.for_all
        (fun k ->
          List.for_all
            (fun i -> Entropy.equal (Entropy.entropy_k st k i) (Entropy.reference_k st k i))
            is
          && List.for_all
               (fun (i, e) ->
                 match e with
                 | None -> true
                 | Some e -> Entropy.equal e (Entropy.reference_k st k i))
               (Entropy.score st ~k))
        [ 1; 2 ])

let wide_strategy_choices_match_reference draws =
  QCheck.Test.make ~name:"wide Ω: fast LkS runs = reference LkS runs (k=1,2)"
    ~count:100 arb_wide_scenario (fun sc ->
      let omega, u = wide_universe sc in
      count_draw draws (State.create u);
      let goal = Bits.of_list (Omega.width omega) sc.wgoal in
      List.for_all
        (fun k -> trace (Strategy.lks k) u goal = trace (Strategy.lks_reference k) u goal)
        [ 1; 2 ])

(* Run a wide property (on QCheck's fixed default seed), then require
   that it drew rounds of both row widths, so both loops of the
   last-level scan were compared against the reference. *)
let check_wide_draws make_test () =
  let draws = { single_word = 0; multi_word = 0 } in
  QCheck.Test.check_exn (make_test draws);
  Alcotest.(check bool)
    (Printf.sprintf "single-word rounds drawn (%d)" draws.single_word)
    true (draws.single_word > 0);
  Alcotest.(check bool)
    (Printf.sprintf "multi-word rounds drawn (%d)" draws.multi_word)
    true (draws.multi_word > 0)

(* ------------------------------------------------------------------ *)
(* Soundness of the k = 2 candidate bound.                              *)
(* ------------------------------------------------------------------ *)

(* Algorithm 5's negative branch for [c] at k = 2, transcribed like
   [Entropy.reference_k]: the best leaf entropy over the classes left
   informative after labeling [c] negative, each leaf's u± counted over
   the root's informative classes net of the two queried tuples; (∞,∞)
   when no class is left. *)
let reference_negative_branch st c =
  let u = State.universe st in
  let sig_of = Universe.signature u in
  let ids0 = State.informative_classes st in
  let certain extras i =
    let tpos, negs = State.extend_virtual st extras in
    State.certain_label_sig ~tpos ~negs (sig_of i) <> None
  in
  let neg = [ (sig_of c, Sample.Negative) ] in
  let u_of extras =
    List.fold_left
      (fun acc i -> if certain extras i then acc + Universe.count u i else acc)
      0 ids0
    - 2
  in
  match List.filter (fun i -> not (certain neg i)) ids0 with
  | [] -> Entropy.infinity
  | is ->
      let leaf j alpha = u_of ((sig_of j, alpha) :: neg) in
      Option.value ~default:Entropy.infinity
        (Entropy.best
           (List.map
              (fun j -> Entropy.make (leaf j Sample.Positive) (leaf j Sample.Negative))
              is))

(* The bound [Entropy.score ~k:2] prunes and orders by never undercuts
   an exact value: UB(c) ≥ entropy²(c).lo and ≥ the lo of c's negative
   branch, for every informative class, on rows of one and of several
   words. *)
let bound_is_sound draws =
  QCheck.Test.make ~name:"wide Ω: k=2 bound ≥ reference entropy² lo" ~count:200
    arb_wide_scenario (fun sc ->
      let _, u = wide_universe sc in
      let st = wide_state u sc in
      count_draw draws st;
      let bounds = Entropy.upper_bounds st in
      List.equal Int.equal (List.map fst bounds) (State.informative_classes st)
      && List.for_all
           (fun (c, ub) ->
             ub >= (Entropy.reference_k st 2 c).Entropy.lo
             && ub >= (reference_negative_branch st c).Entropy.lo)
           bounds)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      entropy_matches_reference;
      entropy3_matches_reference;
      strategy_choices_match_reference;
      canonical_idempotent;
      canonical_state_equivalent;
      view_matches_rescan;
      l2s_build_vs_kary_naive_pairs;
    ]
  @ [
      Alcotest.test_case "L2S on build = build_kary_naive, 3 relations" `Quick
        test_l2s_build_vs_kary_naive_three;
      Alcotest.test_case "L2S on build = build_naive, tiny inputs" `Quick
        test_l2s_build_tiny_inputs;
      Alcotest.test_case "L2S on build = build_naive, synthetic" `Quick
        test_l2s_build_synthetic;
      Alcotest.test_case "Fig 5 u+=11 convention" `Quick
        test_fig5_u_plus_11_convention;
      Alcotest.test_case "Fig 5 table, both engines" `Quick
        test_fig5_full_table_both_engines;
      Alcotest.test_case "§4.4 L2S choices" `Quick test_walkthrough_l2s_choices;
      Alcotest.test_case "L2S full runs on Example 2.1" `Quick
        test_l2s_full_runs_example21;
      Alcotest.test_case "wide Ω: fast entropy_k = reference_k (k=1,2)" `Quick
        (check_wide_draws wide_entropy_matches_reference);
      Alcotest.test_case "wide Ω: fast LkS runs = reference LkS runs (k=1,2)"
        `Quick
        (check_wide_draws wide_strategy_choices_match_reference);
      Alcotest.test_case "wide Ω: k=2 bound ≥ reference entropy² lo" `Quick
        (check_wide_draws bound_is_sound);
    ]
