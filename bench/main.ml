(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the Theorem 6.1 experiment, printing measured
   values next to the published ones, and runs Bechamel micro-benchmarks of
   the critical inner operations.

   Usage:  dune exec bench/main.exe -- [SECTION]... [--full] [--seed N]
   Sections: fig6 fig7 table1 semijoin micro (default: all).
   Quick mode uses reduced scales and run counts so the whole suite stays
   in CI budgets; --full approaches the paper's parameters. *)

module E = Jqi_experiments
module Synth = Jqi_synth.Synth
module Tpch = Jqi_tpch.Tpch
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Strategy = Jqi_core.Strategy
module Entropy = Jqi_core.Entropy
module Prng = Jqi_util.Prng
module Bits = Jqi_util.Bits
module Obs = Jqi_obs.Obs

let section_header title =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '=')

(* Typed comparisons for the result checks below (R1: no polymorphic
   compare in Value-adjacent code). *)
let int_array_equal a b =
  Int.equal (Array.length a) (Array.length b)
  &&
  let rec go i = i >= Array.length a || (Int.equal a.(i) b.(i) && go (i + 1)) in
  go 0

let int_array_compare a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then Int.compare (Array.length a) (Array.length b)
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* --universe: which constructor builds the fig6/fig7 universes (mirrors
   jqinfer's flag), so those sections report which builder produced their
   timings.  The quotient is the default everywhere. *)
let universe_builder_of ~seed spec =
  match String.lowercase_ascii (String.trim spec) with
  | "naive" -> Some (fun rels -> Universe.build_kary_naive rels)
  | "quotient" -> Some (fun rels -> Universe.build rels)
  | s when String.length s > 8 && String.equal (String.sub s 0 8) "sampled:" -> (
      match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
      | Some pairs when pairs > 0 ->
          Some
            (fun rels ->
              Universe.build_sampled (Prng.create seed) ~tuples:pairs rels)
      | Some _ | None -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Figure 6: TPC-H experiments.                                        *)
(* ------------------------------------------------------------------ *)

(* Lookahead acceleration: fast vs reference L1S/L2S on the two §5.1 joins
   with the largest signature quotients (Joins 4 and 5), full inference
   runs against the honest oracle.  The engines must agree question for
   question (the differential guarantee the test suite enforces); here we
   record the per-choice latency gap and emit it as BENCH_lookahead.json
   for CI artifacts. *)
let run_lookahead_bench ~seed =
  let module Json = Jqi_util.Json in
  let timing_runs = 5 in
  Printf.printf
    "\n--- Lookahead acceleration: fast vs reference engine (scale=1) ---\n";
  let db = Tpch.generate ~seed ~scale:1 () in
  let joins = Tpch.joins db in
  let picks = [ List.nth joins 3; List.nth joins 4 ] in
  let entries =
    List.concat_map
      (fun (join : Tpch.goal_join) ->
        let universe = Universe.build [ join.r; join.p ] in
        let omega = Universe.omega universe in
        let goal = Tpch.goal_predicate omega join in
        List.map
          (fun k ->
            let run strategy =
              Jqi_core.Inference.run universe strategy
                (Jqi_core.Oracle.honest ~goal)
            in
            (* One run per engine spreads by about 1.5x on a shared host,
               so each engine runs [timing_runs] times, alternating which
               goes first, and the fastest run of each is kept. *)
            let run_fast () = run (Strategy.lks k)
            and run_reference () = run (Strategy.lks_reference k) in
            let fast = ref (run_fast ()) and reference = ref (run_reference ()) in
            let keep best (r : Jqi_core.Inference.result) =
              if r.elapsed < !best.Jqi_core.Inference.elapsed then best := r
            in
            for n = 2 to timing_runs do
              if n mod 2 = 0 then begin
                keep reference (run_reference ());
                keep fast (run_fast ())
              end
              else begin
                keep fast (run_fast ());
                keep reference (run_reference ())
              end
            done;
            let fast = !fast and reference = !reference in
            (* One extra instrumented run per entry: the oracle-interaction
               and engine counters that go with the timings. *)
            let metrics =
              let was_enabled = Obs.enabled () in
              Obs.reset ();
              Obs.set_enabled true;
              ignore (run (Strategy.lks k));
              let report = Obs.Report.snapshot () in
              Obs.set_enabled was_enabled;
              let grab name = (name, Json.int (Obs.Report.counter report name)) in
              Json.Obj
                (List.map grab
                   [
                     "oracle.questions"; "oracle.answers_positive";
                     "oracle.answers_negative"; "lookahead.branch_cache_hit";
                     "lookahead.branch_cache_miss"; "lookahead.branch_scans";
                     "lookahead.candidates_scored"; "lookahead.candidates_pruned";
                     "lookahead.candidates_bounded"; "state.certainty_scans";
                   ])
            in
            let per_choice (r : Jqi_core.Inference.result) =
              r.elapsed /. float_of_int (max 1 r.n_interactions)
            in
            let speedup = per_choice reference /. per_choice fast in
            let traces_match =
              List.equal
                (fun (c1, l1) (c2, l2) ->
                  Int.equal c1 c2 && Jqi_core.Sample.equal_label l1 l2)
                fast.steps reference.steps
              && Int.equal fast.n_interactions reference.n_interactions
            in
            Printf.printf
              "  %-22s L%dS: fast %8.3f ms/choice (%2d questions), reference \
               %8.3f ms/choice (%2d questions), speedup %6.1fx, traces %s\n"
              join.label k
              (per_choice fast *. 1e3)
              fast.n_interactions
              (per_choice reference *. 1e3)
              reference.n_interactions speedup
              (if traces_match then "identical" else "DIVERGED");
            Json.Obj
              [
                ("join", Json.Str join.label);
                ("k", Json.int k);
                ("classes", Json.int (Universe.n_classes universe));
                ("fast_ms_per_choice", Json.Num (per_choice fast *. 1e3));
                ("reference_ms_per_choice", Json.Num (per_choice reference *. 1e3));
                ("speedup", Json.Num speedup);
                ("timing_runs", Json.int timing_runs);
                ("interactions_fast", Json.int fast.n_interactions);
                ("interactions_reference", Json.int reference.n_interactions);
                ("traces_match", Json.Bool traces_match);
                ("metrics", metrics);
              ])
          [ 1; 2 ])
      picks
  in
  let path = "BENCH_lookahead.json" in
  Json.save_file path
    (Json.Obj [ ("seed", Json.int seed); ("runs", Json.List entries) ]);
  Printf.printf "wrote %s\n" path

let run_fig6 ~full ~seed ~builder ~builder_label =
  section_header
    (Printf.sprintf
       "Figure 6 — TPC-H: interactions (6a/6b) and time (6c/6d) [universe \
        builder: %s]"
       builder_label);
  let small = { E.Fig6.name = "small"; scale = (if full then 3 else 1); seed } in
  let large = { E.Fig6.name = "large"; scale = (if full then 10 else 3); seed } in
  let run_setting (setting : E.Fig6.setting) paper_times sub_int sub_time =
    let results = E.Fig6.run ~builder setting in
    Printf.printf "\n--- Figure %s: interactions, %s scale (scale=%d) ---\n"
      sub_int setting.name setting.scale;
    print_string
      (E.Fig6.interactions_chart
         ~title:
           (Printf.sprintf
              "Interactions per goal join (%s scale). Paper shape: size-1 joins \
               need 2-4 interactions, the size-2 join needs the most; TD/L2S win."
              setting.name)
         results);
    Printf.printf "\n--- Figure %s: inference time in seconds, %s scale ---\n"
      sub_time setting.name;
    print_string (E.Fig6.time_table ~paper:paper_times results);
    Printf.printf
      "(paper columns are %s on the authors' Python/testbed — compare shape, \
       not absolutes)\n"
      (String.concat "/" E.Paper.strategy_order);
    results
  in
  let small_results = run_setting small E.Paper.fig6c_times_sf1 "6a" "6c" in
  let large_results = run_setting large E.Paper.fig6d_times_sf100000 "6b" "6d" in
  run_lookahead_bench ~seed;
  (small_results, large_results)

(* ------------------------------------------------------------------ *)
(* Figure 7: synthetic experiments.                                    *)
(* ------------------------------------------------------------------ *)

let fig7_parts =
  [ ("a", "c"); ("b", "d"); ("e", "g"); ("f", "h"); ("i", "k"); ("j", "l") ]

let run_fig7 ~full ~seed ~builder ~builder_label =
  section_header
    (Printf.sprintf
       "Figure 7 — synthetic datasets: interactions and time [universe \
        builder: %s]"
       builder_label);
  let runs = if full then 100 else 10 in
  let goals_per_size = if full then None else Some 3 in
  List.map2
    (fun config ((int_part, time_part), (config_label, paper_times)) ->
      let result =
        match goals_per_size with
        | None -> E.Fig7.run ~builder ~seed ~runs config
        | Some k -> E.Fig7.run ~builder ~seed ~runs ~goals_per_size:k config
      in
      Printf.printf "\n--- Figure 7%s: interactions, config %s (%d runs) ---\n"
        int_part config_label runs;
      print_string (E.Fig7.interactions_chart result);
      Printf.printf "\n--- Figure 7%s: inference time (s), config %s ---\n"
        time_part config_label;
      print_string (E.Fig7.time_table ~paper:paper_times result);
      result)
    Synth.paper_configs
    (List.combine fig7_parts E.Paper.fig7_times)

(* ------------------------------------------------------------------ *)
(* Table 1: the summary.                                               *)
(* ------------------------------------------------------------------ *)

let run_table1 ~fig6_results ~fig7_results =
  section_header "Table 1 — summary of all experiments";
  let small_results, large_results = fig6_results in
  let paper_tpch rows =
    List.map
      (fun (r : E.Paper.table1_row) ->
        (String.concat "/" r.best, r.best_interactions))
      rows
  in
  Printf.printf "\nTPC-H, small scale (paper: SF=1):\n";
  print_string
    (E.Table1.render
       ~paper_hint:(paper_tpch E.Paper.table1_tpch_sf1)
       (E.Table1.of_fig6 ~dataset:"TPC-H small" small_results));
  Printf.printf "\nTPC-H, large scale (paper: SF=100000):\n";
  print_string
    (E.Table1.render
       ~paper_hint:(paper_tpch E.Paper.table1_tpch_sf100000)
       (E.Table1.of_fig6 ~dataset:"TPC-H large" large_results));
  List.iter2
    (fun (result : E.Fig7.config_result) (block : E.Paper.synth_block) ->
      Printf.printf "\nSynthetic %s (paper join ratio %.3f, ours %.3f):\n"
        block.config block.join_ratio result.join_ratio;
      print_string
        (E.Table1.render
           ~paper_hint:
             (Array.to_list
                (Array.map (fun (b, i, _) -> (b, i)) block.by_size))
           (E.Table1.of_fig7 result)))
    fig7_results E.Paper.table1_synth

(* ------------------------------------------------------------------ *)
(* Theorem 6.1: semijoin consistency.                                  *)
(* ------------------------------------------------------------------ *)

let run_semijoin ~full ~seed =
  section_header
    "Theorem 6.1 — CONS⋉ via the 3SAT reduction (agreement and scaling)";
  let sizes =
    if full then
      [ (3, 8); (4, 12); (5, 16); (6, 20); (8, 28); (10, 40); (12, 48) ]
    else [ (3, 8); (4, 12); (5, 16); (6, 20) ]
  in
  let per_point = if full then 20 else 5 in
  let points = E.Semijoin_exp.run ~seed ~per_point sizes in
  print_string (E.Semijoin_exp.render points);
  if List.for_all (fun (p : E.Semijoin_exp.point) -> p.agree) points then
    print_endline
      "All reduced instances agree with the 3SAT answer, as Theorem 6.1 requires."
  else print_endline "MISMATCH DETECTED — the reduction or a solver is wrong."

(* ------------------------------------------------------------------ *)
(* Scaling: interactions stay lattice-bound as the instance grows.     *)
(* ------------------------------------------------------------------ *)

let run_scaling ~full ~seed =
  section_header
    "Scaling — quotient size and interactions vs instance size (§5 claim)";
  let row_counts = if full then [ 25; 50; 100; 200; 400; 800 ] else [ 25; 50; 100; 200 ] in
  let runs = if full then 10 else 3 in
  let points = E.Scaling.run ~seed ~runs row_counts in
  print_string (E.Scaling.render points);
  print_endline
    "(build time grows with |D| = l², but the class count and the question \
     counts track the lattice, not the product — the quotient is what makes \
     the interactive protocol scale)";
  (* Sampled universes: the escape hatch when even one scan of |D| is too
     much (§1 "instances may be too big to be skimmed").  Same instance,
     full scan vs uniform draws. *)
  let rows = List.fold_left max 0 row_counts in
  let prng = Prng.create seed in
  let r, p = Synth.generate prng (Synth.config 3 3 rows 100) in
  let full_u = Universe.build [ r; p ] in
  let draws = (rows * rows) / 10 in
  let sampled_u =
    Universe.build_sampled (Prng.create seed) ~tuples:draws [ r; p ]
  in
  let goal =
    match Jqi_synth.Synth.goals_of_size full_u ~size:1 with
    | g :: _ -> g
    | [] -> Jqi_core.Omega.empty (Universe.omega full_u)
  in
  let infer u =
    let result =
      Jqi_core.Inference.run u Strategy.td (Jqi_core.Oracle.honest ~goal)
    in
    result.n_interactions
  in
  Printf.printf
    "\nSampled universe on the %dx%d instance (10%% of |D| drawn): full scan \
     sees %d classes and TD asks %d questions; the sample sees %d classes \
     and TD asks %d.\n"
    rows rows (Universe.n_classes full_u) (infer full_u)
    (Universe.n_classes sampled_u) (infer sampled_u)

(* ------------------------------------------------------------------ *)
(* Ablation: heuristics vs the minimax optimum, and the extension      *)
(* strategies (L3S, IGS) the paper's §7 points toward.                 *)
(* ------------------------------------------------------------------ *)

let run_ablation ~full ~seed =
  section_header
    "Ablation — strategies vs the minimax optimum (small instances, §4.1)";
  let prng = Prng.create seed in
  let instances = if full then 30 else 8 in
  let config = Synth.config 2 2 6 3 in
  Printf.printf
    "%d random %s instances; goals = all distinct signatures + ∅ + Ω.\n\
     OPT is the exponential minimax strategy — the lower bound the paper \
     proves exists but cannot run at scale.\n"
    instances
    (Fmt.str "%a" Synth.pp_config config);
  let strategies u =
    [
      ("BU", Strategy.bu);
      ("TD", Strategy.td);
      ("L1S", Strategy.l1s);
      ("L2S", Strategy.l2s);
      ("L3S", Strategy.lks 3);
      ("IGS", Strategy.igs ~samples:128 (Prng.create seed));
      ("TD+L2S", Strategy.hybrid);
      ("RND", Strategy.rnd (Prng.create seed));
      ("OPT", Jqi_core.Minimax.strategy u);
    ]
  in
  let totals = Hashtbl.create 8 in
  let n_runs = ref 0 in
  for _ = 1 to instances do
    let r, p = Synth.generate prng config in
    let universe = Universe.build [ r; p ] in
    let omega = Universe.omega universe in
    let goals =
      Jqi_core.Omega.empty omega :: Jqi_core.Omega.full omega
      :: Universe.signatures universe
    in
    List.iter
      (fun goal ->
        incr n_runs;
        List.iter
          (fun (name, strategy) ->
            let result =
              Jqi_core.Inference.run universe strategy
                (Jqi_core.Oracle.honest ~goal)
            in
            let ints, time =
              Option.value ~default:(0, 0.) (Hashtbl.find_opt totals name)
            in
            Hashtbl.replace totals name
              (ints + result.n_interactions, time +. result.elapsed))
          (strategies universe))
      goals
  done;
  let rows =
    List.filter_map
      (fun name ->
        Option.map
          (fun (ints, time) ->
            ( name,
              float_of_int ints /. float_of_int !n_runs,
              time /. float_of_int !n_runs ))
          (Hashtbl.find_opt totals name))
      [ "OPT"; "L3S"; "L2S"; "TD+L2S"; "L1S"; "IGS"; "TD"; "BU"; "RND" ]
  in
  let opt_mean =
    match rows with ("OPT", m, _) :: _ -> m | _ -> nan
  in
  print_string
    (Jqi_util.Ascii_table.render
       ~headers:[ "strategy"; "avg interactions"; "vs OPT"; "avg time (s)" ]
       (List.map
          (fun (name, ints, time) ->
            [
              name;
              Printf.sprintf "%.2f" ints;
              Printf.sprintf "%+.1f%%" ((ints /. opt_mean -. 1.) *. 100.);
              Printf.sprintf "%.5f" time;
            ])
          rows));
  Printf.printf
    "(%d inference runs per strategy; OPT plays minimax against the \
     worst-case answer sequence, so heuristics can tie or even beat it on \
     specific goals while never beating its worst case)\n"
    !n_runs

(* Run [f] [runs] times: its last result and its fastest time. *)
let time_best ?(runs = 3) f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to runs do
    let x, dt = Jqi_util.Timer.time f in
    if dt < !best then best := dt;
    result := Some x
  done;
  (Option.get !result, !best)

(* ------------------------------------------------------------------ *)
(* Universe construction: naive scan vs profile quotient.              *)
(* ------------------------------------------------------------------ *)

(* A/B of the exact universe builders on two TPC-H lineitem × orders
   shapes.  Duplicate-heavy: both tables projected onto their
   low-cardinality flag/status/priority columns (the §5.1 table shapes
   with the key columns dropped), so row profiles repeat heavily and the
   quotient collapses the |R|·|P| scan to the distinct-profile product.
   All-distinct: the full-arity tables (a 16 × 9 = 144-bit Ω), where
   every row is its own profile and the profile quotient collapses
   nothing — the shape a cold server open builds, and the one where only
   the output-sensitive kernel helps.  Both builders must produce
   identical universes — classes, counts and representatives — which is
   asserted here and by CI on the emitted BENCH_universe.json. *)
let run_universe ~full ~seed =
  let module Json = Jqi_util.Json in
  let module Algebra = Jqi_relational.Algebra in
  let module Relation = Jqi_relational.Relation in
  section_header "Universe construction — naive scan vs profile quotient";
  let universes_equal u1 u2 =
    Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
    && (let rec go i =
          i >= Universe.n_classes u1
          || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
             && Int.equal (Universe.count u1 i) (Universe.count u2 i)
             && int_array_equal (Universe.cls u1 i).Universe.rep
                  (Universe.cls u2 i).Universe.rep
             && go (i + 1)
        in
        go 0)
  in
  (* A k = 2 quotient build takes a few ms, so its best of 3 swung by
     about 40% between runs; the best of this many is steadier. *)
  let quotient_runs = 21 in
  let duplicate_heavy (db : Tpch.db) =
    ( Algebra.project db.lineitem [ "l_returnflag"; "l_linestatus"; "l_shipmode" ],
      Algebra.project db.orders
        [ "o_orderstatus"; "o_orderpriority"; "o_shippriority" ] )
  in
  let all_distinct (db : Tpch.db) = (db.lineitem, db.orders) in
  let instances =
    List.map (fun scale -> ("duplicate-heavy", duplicate_heavy, scale))
      (if full then [ 4; 16 ] else [ 2; 8 ])
    @ [ ("all-distinct", all_distinct, if full then 8 else 4) ]
  in
  let entries =
    List.map
      (fun (shape, instance, scale) ->
        let r, p = instance (Tpch.generate ~seed ~scale ()) in
        let naive_u, naive_s = time_best (fun () -> Universe.build_naive r p) in
        let quot_u, quot_s =
          time_best ~runs:quotient_runs (fun () -> Universe.build [ r; p ])
        in
        (* One instrumented quotient build for the profile/dict counters. *)
        let was_enabled = Obs.enabled () in
        Obs.reset ();
        Obs.set_enabled true;
        ignore (Universe.build [ r; p ]);
        let counter name = Obs.Counter.find name in
        let profiles_r = counter "universe.profiles_r" in
        let profiles_p = counter "universe.profiles_p" in
        let dict_values = counter "universe.dict_values" in
        let pairs_skipped = counter "universe.pairs_skipped" in
        let pairs_touched = counter "universe.pairs_touched" in
        Obs.set_enabled was_enabled;
        let identical = universes_equal naive_u quot_u in
        let speedup_quot = naive_s /. quot_s in
        Printf.printf
          "  %s scale %2d: %4d x %4d rows (|D| = %7d), %4d x %3d profiles \
           (%d touched pairs), %d dict values, %d classes\n\
          \    naive    %8.2f ms\n\
          \    quotient %8.2f ms  (%.1fx)\n\
          \    universes %s\n"
          shape scale (Relation.cardinality r) (Relation.cardinality p)
          (Relation.cardinality r * Relation.cardinality p)
          profiles_r profiles_p pairs_touched dict_values
          (Universe.n_classes quot_u) (naive_s *. 1e3) (quot_s *. 1e3)
          speedup_quot
          (if identical then "identical" else "DIVERGED");
        Json.Obj
          [
            ("shape", Json.Str shape);
            ("scale", Json.int scale);
            ("rows_r", Json.int (Relation.cardinality r));
            ("rows_p", Json.int (Relation.cardinality p));
            ("omega_bits", Json.int (Jqi_core.Omega.width (Universe.omega quot_u)));
            ("profiles_r", Json.int profiles_r);
            ("profiles_p", Json.int profiles_p);
            ("dict_values", Json.int dict_values);
            ("pairs_skipped", Json.int pairs_skipped);
            ("pairs_touched", Json.int pairs_touched);
            ("classes", Json.int (Universe.n_classes quot_u));
            ("naive_s", Json.Num naive_s);
            ("quotient_s", Json.Num quot_s);
            ("quotient_runs", Json.int quotient_runs);
            ("speedup_quotient", Json.Num speedup_quot);
            ("identical", Json.Bool identical);
          ])
      instances
  in
  let path = "BENCH_universe.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ( "instance",
           Json.Str
             "TPC-H lineitem x orders: duplicate-heavy projections \
              lineitem(returnflag,linestatus,shipmode) x \
              orders(orderstatus,orderpriority,shippriority), and the \
              all-distinct full-arity tables" );
         ("entries", Json.List entries);
       ]);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* k-ary joins: Leapfrog Triejoin vs composition vs naive (ISSUE 7).   *)
(* ------------------------------------------------------------------ *)

(* Three-table TPC-H chain part ⋈ partsupp ⋈ supplier on the natural
   keys.  Three measurements: (a) the k-ary quotient universe against
   its Cartesian reference (identical classes, large speedup), (b) the
   triejoin evaluator against left-deep hash composition and the naive
   nested loop (equal multisets, triejoin beating naive) on the chain and
   against composition on a cyclic triangle query, and (c) k-ary
   inference convergence under BU/TD/L2S with an honest oracle, over the
   full Ω and over the chain-masked Ω of the join path (Ω bits, classes
   and questions for both).  Results land in BENCH_KARY.json; CI asserts
   the identity bits, the triejoin-vs-naive and triangle speedups and
   that every run converges. *)
let run_kary ~full ~seed =
  let module Json = Jqi_util.Json in
  let module Algebra = Jqi_relational.Algebra in
  let module Relation = Jqi_relational.Relation in
  let module Schema = Jqi_relational.Schema in
  let module Tuple = Jqi_relational.Tuple in
  let module Value = Jqi_relational.Value in
  let module Leapfrog = Jqi_relational.Leapfrog in
  let module Ordering = Jqi_relational.Ordering in
  let module Omega = Jqi_core.Omega in
  let module Inference = Jqi_core.Inference in
  let module Oracle = Jqi_core.Oracle in
  section_header
    "k-ary joins — Leapfrog Triejoin vs pairwise composition vs naive";
  let scale = if full then 4 else 2 in
  let db = Tpch.generate ~seed ~scale () in
  let part = Algebra.project db.part [ "p_partkey"; "p_size" ] in
  let partsupp = Algebra.project db.partsupp [ "ps_partkey"; "ps_suppkey" ] in
  let supplier = Algebra.project db.supplier [ "s_suppkey"; "s_nationkey" ] in
  let rels = [| part; partsupp; supplier |] in
  let rel_list = [ part; partsupp; supplier ] in
  let eqs = [ ((0, 0), (1, 0)); ((1, 1), (2, 0)) ] in
  (* (a) universe: profile-trie walk vs Cartesian reference, on
     duplicate-heavy projections where quotienting can pay (unique-key
     columns have one profile per row, so there the two builders do the
     same work). *)
  let lw = Algebra.project db.lineitem [ "l_returnflag"; "l_linestatus"; "l_shipmode" ] in
  let ow = Algebra.project db.orders [ "o_orderstatus"; "o_orderpriority" ] in
  let cw = Algebra.project db.customer [ "c_mktsegment" ] in
  let wide_list = [ lw; ow; cw ] in
  let kary_u, kary_s = time_best (fun () -> Universe.build wide_list) in
  let naive_u, naive_s =
    time_best (fun () -> Universe.build_kary_naive wide_list)
  in
  let universes_equal u1 u2 =
    Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
    && (let rec go i =
          i >= Universe.n_classes u1
          || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
             && Int.equal (Universe.count u1 i) (Universe.count u2 i)
             && int_array_equal (Universe.cls u1 i).Universe.rep
                  (Universe.cls u2 i).Universe.rep
             && go (i + 1)
        in
        go 0)
  in
  let u_identical = universes_equal kary_u naive_u in
  let u_speedup = naive_s /. kary_s in
  Printf.printf
    "  universe: %d x %d x %d rows (|D| = %d), %d classes\n\
    \    kary     %8.2f ms\n\
    \    naive    %8.2f ms  (%.1fx)\n\
    \    universes %s\n"
    (Relation.cardinality lw) (Relation.cardinality ow)
    (Relation.cardinality cw)
    (Universe.total_tuples kary_u)
    (Universe.n_classes kary_u) (kary_s *. 1e3) (naive_s *. 1e3) u_speedup
    (if u_identical then "identical" else "DIVERGED");
  (* (b) join evaluation: triejoin vs composition vs nested loop. *)
  let vars = Leapfrog.variables rels eqs in
  let order = Ordering.default vars in
  let tj_rows, tj_s = time_best (fun () -> Leapfrog.join ~order rels eqs) in
  let comp_rows, comp_s = time_best (fun () -> Leapfrog.compose rels eqs) in
  let ref_rows, ref_s = time_best (fun () -> Leapfrog.reference rels eqs) in
  let canon rows =
    let c = Array.map Array.copy rows in
    Array.sort int_array_compare c;
    c
  in
  let rows_agree a b =
    Int.equal (Array.length a) (Array.length b)
    && Array.for_all2 int_array_equal a b
  in
  let agree =
    rows_agree (canon tj_rows) (canon comp_rows)
    && rows_agree (canon tj_rows) (canon ref_rows)
  in
  let speedup_ref = ref_s /. tj_s in
  let speedup_comp = comp_s /. tj_s in
  Printf.printf
    "  join (%d result rows, %d variables):\n\
    \    triejoin %8.3f ms\n\
    \    compose  %8.3f ms  (triejoin %.1fx)\n\
    \    naive    %8.3f ms  (triejoin %.1fx)\n\
    \    results %s\n"
    (Array.length tj_rows) (Array.length vars) (tj_s *. 1e3) (comp_s *. 1e3)
    speedup_comp (ref_s *. 1e3) speedup_ref
    (if agree then "multiset-equal" else "DIVERGED");
  (* (b') a cyclic query, where worst-case optimality should pay: the
     triangle R(a,b) ⋈ S(b,c) ⋈ T(c,a), all three the edge relation of
     a skewed graph drawn from the seed — a hub linked both ways to half
     of n nodes, plus 2n random edges.  Any pairwise plan materializes
     the hub's ~n²/4 two-paths before the third relation prunes them;
     triejoin intersects all three relations per variable and never
     does.  The triangle count is the join's row count: each directed
     3-cycle once per rotation, with edge multiplicity.  The three
     evaluators must agree on a 40-node graph (the nested loop is cubic
     in the edge count); at full size triejoin and compose must agree
     and are timed best of 5. *)
  let triangle_eqs =
    [ ((0, 1), (1, 0)); ((1, 1), (2, 0)); ((2, 1), (0, 0)) ]
  in
  let triangle_graph n =
    let prng = Prng.create (seed + n) in
    let hub =
      List.concat_map
        (fun v -> [ Tuple.ints [ 0; v ]; Tuple.ints [ v; 0 ] ])
        (List.init (n / 2) (fun i -> i + 1))
    in
    let random =
      List.init (2 * n) (fun _ ->
          Tuple.ints [ Prng.int prng n; Prng.int prng n ])
    in
    let edge =
      Relation.of_list ~name:"edge"
        ~schema:(Schema.of_names ~ty:Value.TInt [ "src"; "dst" ])
        (hub @ random)
    in
    [| edge; edge; edge |]
  in
  let small = triangle_graph 40 in
  let small_tj = canon (Leapfrog.join small triangle_eqs) in
  let tri_reference_agree =
    rows_agree small_tj (canon (Leapfrog.compose small triangle_eqs))
    && rows_agree small_tj (canon (Leapfrog.reference small triangle_eqs))
  in
  let tri_nodes = if full then 4000 else 2000 in
  let tri = triangle_graph tri_nodes in
  let tri_edges = Relation.cardinality tri.(0) in
  let tri_tj, tri_tj_s =
    time_best ~runs:5 (fun () -> Leapfrog.join tri triangle_eqs)
  in
  let tri_comp, tri_comp_s =
    time_best ~runs:5 (fun () -> Leapfrog.compose tri triangle_eqs)
  in
  let tri_agree = rows_agree (canon tri_tj) (canon tri_comp) in
  let tri_speedup = tri_comp_s /. tri_tj_s in
  Printf.printf
    "  triangle (%d nodes, %d edges, %d triangles):\n\
    \    triejoin %8.3f ms\n\
    \    compose  %8.3f ms  (triejoin %.1fx)\n\
    \    results %s; 40-node graph %s the nested loop\n"
    tri_nodes tri_edges (Array.length tri_tj) (tri_tj_s *. 1e3)
    (tri_comp_s *. 1e3) tri_speedup
    (if tri_agree then "multiset-equal" else "DIVERGED")
    (if tri_reference_agree then "agrees with" else "DIVERGED from");
  (* (c) inference convergence over the key-chain k-ary universe, once
     with a block for every relation pair and once with the chain's
     adjacent pairs only (the join-path universe). *)
  let chain_edges = [ (0, 1); (1, 2) ] in
  (* Each universe's build seconds (best of 3) and the walk's class
     merges from one instrumented build: the deterministic work count CI
     gates. *)
  let build_measured ?edges () =
    let u, s = time_best (fun () -> Universe.build ?edges rel_list) in
    let was_enabled = Obs.enabled () in
    Obs.reset ();
    Obs.set_enabled true;
    ignore (Universe.build ?edges rel_list);
    let work = Obs.Counter.find "universe.kary_work" in
    Obs.set_enabled was_enabled;
    (u, s, work)
  in
  let full_u, full_s, full_work = build_measured () in
  let chain_u, chain_s, chain_work = build_measured ~edges:chain_edges () in
  let chain_identical =
    universes_equal chain_u (Universe.build_kary_naive ~edges:chain_edges rel_list)
  in
  let omega_bits u = Omega.width (Universe.omega u) in
  Printf.printf
    "  omega: full %d bits, %d classes; chain %d bits, %d classes (%s naive)\n\
    \    build: full %.2f ms, %d merges; chain %.2f ms, %d merges\n"
    (omega_bits full_u) (Universe.n_classes full_u) (omega_bits chain_u)
    (Universe.n_classes chain_u)
    (if chain_identical then "identical to" else "DIVERGED from")
    (full_s *. 1e3) full_work (chain_s *. 1e3) chain_work;
  let infer label u =
    let goal =
      Omega.of_names_kary (Universe.omega u)
        [
          ("part.p_partkey", "partsupp.ps_partkey");
          ("partsupp.ps_suppkey", "supplier.s_suppkey");
        ]
    in
    List.map
      (fun (name, strategy) ->
        let result = Inference.run u strategy (Oracle.honest ~goal) in
        let verified = Inference.verified u ~goal result in
        Printf.printf "  inference %-5s %-4s %4d interactions  %s\n" label name
          result.Jqi_core.Inference.n_interactions
          (if verified then "converged" else "NOT instance-equivalent");
        Json.Obj
          [
            ("strategy", Json.Str name);
            ( "n_interactions",
              Json.int result.Jqi_core.Inference.n_interactions );
            ("verified", Json.Bool verified);
          ])
      [
        ("bu", Strategy.bu);
        ("td", Strategy.td);
        ("l2s", Strategy.lks 2);
      ]
  in
  let inference_entries = infer "full" full_u in
  let chain_entries = infer "chain" chain_u in
  let path = "BENCH_KARY.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ("scale", Json.int scale);
         ( "instance",
           Json.Str
             "universe: TPC-H lineitem x orders x customer duplicate-heavy \
              projections; join/inference: part x partsupp x supplier \
              natural-key chain" );
         ( "universe",
           Json.Obj
             [
               ("classes", Json.int (Universe.n_classes kary_u));
               ("total_tuples", Json.int (Universe.total_tuples kary_u));
               ("kary_s", Json.Num kary_s);
               ("naive_s", Json.Num naive_s);
               ("speedup", Json.Num u_speedup);
               ("identical", Json.Bool u_identical);
             ] );
         ( "join",
           Json.Obj
             [
               ("result_rows", Json.int (Array.length tj_rows));
               ("variables", Json.int (Array.length vars));
               ("triejoin_s", Json.Num tj_s);
               ("compose_s", Json.Num comp_s);
               ("reference_s", Json.Num ref_s);
               ("speedup_vs_naive", Json.Num speedup_ref);
               ("speedup_vs_compose", Json.Num speedup_comp);
               ("agree", Json.Bool agree);
             ] );
         ( "triangle",
           Json.Obj
             [
               ("nodes", Json.int tri_nodes);
               ("edges", Json.int tri_edges);
               ("triangles", Json.int (Array.length tri_tj));
               ("triejoin_s", Json.Num tri_tj_s);
               ("compose_s", Json.Num tri_comp_s);
               ("speedup_vs_compose", Json.Num tri_speedup);
               ("agree", Json.Bool tri_agree);
               ("reference_agree", Json.Bool tri_reference_agree);
             ] );
         ("inference", Json.List inference_entries);
         ( "edges",
           Json.Obj
             [
               ( "full",
                 Json.Obj
                   [
                     ("omega_bits", Json.int (omega_bits full_u));
                     ("classes", Json.int (Universe.n_classes full_u));
                     ("build_s", Json.Num full_s);
                     ("kary_work", Json.int full_work);
                   ] );
               ( "chain",
                 Json.Obj
                   [
                     ( "edges",
                       Json.List
                         (List.map
                            (fun (i, j) -> Json.List [ Json.int i; Json.int j ])
                            chain_edges) );
                     ("omega_bits", Json.int (omega_bits chain_u));
                     ("classes", Json.int (Universe.n_classes chain_u));
                     ("build_s", Json.Num chain_s);
                     ("kary_work", Json.int chain_work);
                     ("identical", Json.Bool chain_identical);
                     ("inference", Json.List chain_entries);
                   ] );
             ] );
       ]);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Out-of-core storage: paged heap files vs in-memory arrays.          *)
(* ------------------------------------------------------------------ *)

(* The flagship storage experiment: TPC-H lineitem and orders are saved
   as CSV, loaded once in memory and once into heap-file stores whose
   page count exceeds the buffer-pool budget (so universe builds really
   do evict), then the quotient universe is built over both backends
   and compared class by class — signatures, counts, representatives
   and join ratio must be byte-identical.  Alongside the A/B we record
   the buffer-pool hit rate of the paged build (sequential heap scans
   pin per record, so a 4 KiB page amortizes ~60 pins per fault —
   the acceptance floor is 0.9), random point-read throughput with its
   page-fault rate, and the pinned-frame leak check.  Results land in
   BENCH_STORAGE.json. *)
let run_storage ~full ~seed =
  let module Json = Jqi_util.Json in
  let module Relation = Jqi_relational.Relation in
  let module Csv = Jqi_relational.Csv in
  let module Relstore = Jqi_storage.Relstore in
  let module Buffer_pool = Jqi_storage.Buffer_pool in
  let module Heap = Jqi_storage.Heap in
  section_header "Out-of-core storage — paged heap files vs in-memory arrays";
  let scale = if full then 60 else 20 in
  let frames = 8 in
  let db = Tpch.generate ~seed ~scale () in
  let tmp suffix = Filename.temp_file "jqibench" suffix in
  let r_csv = tmp "-lineitem.csv" and p_csv = tmp "-orders.csv" in
  Csv.save_relation r_csv db.lineitem;
  Csv.save_relation p_csv db.orders;
  (* Memory backend: the whole file becomes tuple arrays. *)
  let (mem_r, mem_p), mem_load_s =
    Jqi_util.Timer.time (fun () ->
        ( Csv.load_relation ~name:"lineitem" r_csv,
          Csv.load_relation ~name:"orders" p_csv ))
  in
  (* Paged backend: rows stream into heap files; keep the store handles
     so we can reach the pools, heaps and point reads directly. *)
  let (store_r, store_p), paged_load_s =
    Jqi_util.Timer.time (fun () ->
        ( Relstore.load_csv ~pool_frames:frames ~dest:(tmp "-lineitem.jqh")
            ~name:"lineitem" r_csv,
          Relstore.load_csv ~pool_frames:frames ~dest:(tmp "-orders.jqh")
            ~name:"orders" p_csv ))
  in
  let paged_r = Relstore.relation store_r in
  let paged_p = Relstore.relation store_p in
  let pages_r = Heap.data_pages (Relstore.heap store_r) in
  let pages_p = Heap.data_pages (Relstore.heap store_p) in
  let out_of_core = pages_r > frames && pages_p > frames in
  Printf.printf
    "  lineitem: %d rows in %d heap pages; orders: %d rows in %d pages; \
     pool budget %d frames each (%s)\n"
    (Relation.cardinality paged_r) pages_r (Relation.cardinality paged_p)
    pages_p frames
    (if out_of_core then "out-of-core" else "FITS IN POOL");
  let fp_equal =
    String.equal (Relation.fingerprint mem_r) (Relation.fingerprint paged_r)
    && String.equal (Relation.fingerprint mem_p) (Relation.fingerprint paged_p)
  in
  (* Quotient universe over both backends; the paged build is bracketed
     by pool-stat resets so the hit rate covers exactly that scan. *)
  let mem_u, mem_build_s =
    Jqi_util.Timer.time (fun () -> Universe.build [ mem_r; mem_p ])
  in
  Buffer_pool.reset_stats (Relstore.pool store_r);
  Buffer_pool.reset_stats (Relstore.pool store_p);
  let paged_u, paged_build_s =
    Jqi_util.Timer.time (fun () -> Universe.build [ paged_r; paged_p ])
  in
  let hit_rate =
    let st_r = Buffer_pool.stats (Relstore.pool store_r) in
    let st_p = Buffer_pool.stats (Relstore.pool store_p) in
    let hits = st_r.Buffer_pool.hits + st_p.Buffer_pool.hits in
    let misses = st_r.Buffer_pool.misses + st_p.Buffer_pool.misses in
    if hits + misses = 0 then 0. else float hits /. float (hits + misses)
  in
  let universes_equal u1 u2 =
    Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
    && Float.equal (Universe.join_ratio u1) (Universe.join_ratio u2)
    && (let rec go i =
          i >= Universe.n_classes u1
          || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
             && Int.equal (Universe.count u1 i) (Universe.count u2 i)
             && int_array_equal (Universe.cls u1 i).Universe.rep
                  (Universe.cls u2 i).Universe.rep
             && go (i + 1)
        in
        go 0)
  in
  let identical = universes_equal mem_u paged_u in
  Printf.printf
    "  fingerprints %s; universe: %d classes %s (mem %.2f ms, paged %.2f ms)\n\
    \  buffer-pool hit rate on the universe-build scan: %.4f\n"
    (if fp_equal then "equal" else "DIVERGED")
    (Universe.n_classes paged_u)
    (if identical then "identical" else "DIVERGED")
    (mem_build_s *. 1e3) (paged_build_s *. 1e3) hit_rate;
  (* Random point reads: rid-addressed row fetches through the pool,
     far exceeding the budget so faults are real.  One run spreads by
     about ±15%, so [point_reads_per_s] is the best (max) of
     [read_runs] runs, with the min beside it; the fault rate covers
     every run. *)
  let prng = Prng.create (seed + 1) in
  let n_reads = if full then 50_000 else 20_000 in
  let read_runs = 5 in
  let n_rows = Relstore.row_count store_r in
  Buffer_pool.reset_stats (Relstore.pool store_r);
  let run_rates =
    List.init read_runs (fun _ ->
        let (), read_s =
          Jqi_util.Timer.time (fun () ->
              for _ = 1 to n_reads do
                ignore (Relstore.get_row store_r (Prng.int prng n_rows))
              done)
        in
        float n_reads /. read_s)
  in
  let read_stats = Buffer_pool.stats (Relstore.pool store_r) in
  let reads_min = List.fold_left Float.min Float.infinity run_rates in
  let reads_per_s = List.fold_left Float.max 0. run_rates in
  let fault_rate =
    float read_stats.Buffer_pool.misses /. float (read_runs * n_reads)
  in
  Printf.printf
    "  point reads: %.0f rows/s best of %d runs (min %.0f; %d random reads \
     each, fault rate %.3f)\n"
    reads_per_s read_runs reads_min n_reads fault_rate;
  let pinned_leaked =
    Buffer_pool.pinned (Relstore.pool store_r)
    + Buffer_pool.pinned (Relstore.pool store_p)
  in
  Printf.printf "  pinned frames leaked after all scans: %d\n" pinned_leaked;
  let path = "BENCH_STORAGE.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ("scale", Json.int scale);
         ( "instance",
           Json.Str
             "TPC-H lineitem x orders, CSV-loaded into heap-file stores \
              under a fixed buffer-pool budget" );
         ("rows_r", Json.int (Relation.cardinality paged_r));
         ("rows_p", Json.int (Relation.cardinality paged_p));
         ("heap_pages_r", Json.int pages_r);
         ("heap_pages_p", Json.int pages_p);
         ("pool_frames", Json.int frames);
         ("out_of_core", Json.Bool out_of_core);
         ("load_mem_s", Json.Num mem_load_s);
         ("load_paged_s", Json.Num paged_load_s);
         ("classes", Json.int (Universe.n_classes paged_u));
         ("universe_mem_s", Json.Num mem_build_s);
         ("universe_paged_s", Json.Num paged_build_s);
         ("fingerprints_equal", Json.Bool fp_equal);
         ("identical", Json.Bool identical);
         ("hit_rate", Json.Num hit_rate);
         ("point_reads_per_s", Json.Num reads_per_s);
         ("point_read_runs", Json.int read_runs);
         ("point_reads_per_s_min", Json.Num reads_min);
         ("point_read_fault_rate", Json.Num fault_rate);
         ("pinned_leaked", Json.int pinned_leaked);
       ]);
  Relstore.close store_r;
  Relstore.close store_p;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Data churn: incremental universe maintenance vs rebuild.            *)
(* ------------------------------------------------------------------ *)

(* The delta pipeline's headline number: updates/s through
   [Universe.apply_delta] vs re-running [Universe.build] after every
   batch, on a duplicate-heavy synthetic pair (small value domain, so
   deltas mostly shuffle class multiplicities — the incremental sweet
   spot).  The same pre-generated edit script drives both sides at each
   batch size, half deletions of live rows and half fresh insertions,
   and the final universes must be byte-identical — the differential
   guarantee test/test_churn.ml pins per batch, asserted here end to
   end and by CI on the emitted BENCH_CHURN.json.  The incremental
   chain is the catalog's delta path: [Relation.apply_delta], the
   fingerprint derived with [Relation.digest_after] (checked against a
   fresh [Relation.fingerprint] at the end) and [Universe.apply_delta].
   The crossover is the smallest batch size at which a full rebuild
   amortizes better than patching (null when patching wins everywhere
   measured).

   A second sweep grows R (1k and 4k rows, 16k with --full) at batch 1
   and records, besides updates/s, three deterministic counts per
   update that CI gates: rows read by the resolution scan, rows hashed
   for fingerprints (that scan's rows included) and R_0 profiles walked
   by rep repairs. *)
let run_churn ~full ~seed =
  let module Json = Jqi_util.Json in
  let module Relation = Jqi_relational.Relation in
  let module Tuple = Jqi_relational.Tuple in
  let module Delta = Jqi_relational.Delta in
  section_header
    "Data churn — incremental universe maintenance vs rebuild-from-scratch";
  let rows = if full then 4_000 else 1_000 in
  let values = 8 in
  let total_updates = if full then 512 else 128 in
  let instance rows =
    Synth.generate (Prng.create seed) (Synth.config 3 3 rows values)
  in
  let r0, p = instance rows in
  (* One edit script per (relation, batch size), deterministic in the
     seed: half the updates remove live R-rows (tracked through the
     script, so a row is never claimed twice) and half insert fresh rows
     from the generator's distribution.  Batch j removes
     ⌊(j+1)·b/2⌋ − ⌊j·b/2⌋ rows, so at b = 1 inserts and removes
     alternate. *)
  let gen_script r0 ~batch ~updates =
    let arity = Jqi_relational.Schema.arity (Relation.schema r0) in
    let prng = Prng.create (seed + batch) in
    let n_batches = max 1 (updates / batch) in
    (* Live R-rows as a swap-remove array with an explicit count, so
       picking and deleting a random live row is O(1). *)
    let base = Relation.rows r0 in
    let live = Array.make (Array.length base + (batch * n_batches)) base.(0) in
    Array.blit base 0 live 0 (Array.length base);
    let n_live = ref (Array.length base) in
    List.init n_batches (fun j ->
        let n_rm = ((j + 1) * batch / 2) - (j * batch / 2) in
        let n_add = batch - n_rm in
        let removes =
          List.init n_rm (fun _ ->
              let i = Prng.int prng !n_live in
              let row = live.(i) in
              live.(i) <- live.(!n_live - 1);
              decr n_live;
              row)
        in
        let adds =
          List.init n_add (fun _ ->
              let row =
                Tuple.ints (List.init arity (fun _ -> Prng.int prng values))
              in
              live.(!n_live) <- row;
              incr n_live;
              row)
        in
        Delta.of_lists ~adds ~removes)
  in
  let universes_equal u1 u2 =
    Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
    && Float.equal (Universe.join_ratio u1) (Universe.join_ratio u2)
    &&
    let rec go i =
      i >= Universe.n_classes u1
      || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
         && Int.equal (Universe.count u1 i) (Universe.count u2 i)
         && int_array_equal (Universe.cls u1 i).Universe.rep
              (Universe.cls u2 i).Universe.rep
         && go (i + 1)
    in
    go 0
  in
  (* The incremental chain over [script] from [r0] × [p]: the final
     relation, universe and fingerprint, and the seconds it took. *)
  let incremental r0 p script =
    let r = ref r0 and u = ref (Universe.build [ r0; p ]) in
    let fp = ref (Relation.digest r0) in
    let (), secs =
      Jqi_util.Timer.time (fun () ->
          List.iter
            (fun d ->
              let change = Relation.apply_delta !r d in
              r := change.Relation.after;
              fp := Relation.digest_after !fp change;
              u := Universe.apply_delta !u [ (0, change) ])
            script)
    in
    (!r, !u, Relation.digest_hex !fp, secs)
  in
  let u0 = Universe.build [ r0; p ] in
  Printf.printf
    "  instance: R×P %d×%d rows, %d values/attr, %d classes; %d row \
     updates per batch size\n"
    (Relation.cardinality r0) (Relation.cardinality p) values
    (Universe.n_classes u0) total_updates;
  let batches = [ 1; 4; 16; 64; 256 ] in
  let measurements =
    List.map
      (fun batch ->
        let script = gen_script r0 ~batch ~updates:total_updates in
        let n_batches = max 1 (total_updates / batch) in
        let updates = batch * n_batches in
        let r_inc, u_inc, fp_inc, inc_s = incremental r0 p script in
        (* Rebuild chain: fold the delta into the relation, then build
           the universe from scratch — the pre-pipeline behaviour. *)
        let r_cur = ref r0 in
        let u_rb = ref u0 in
        let (), rb_s =
          Jqi_util.Timer.time (fun () ->
              List.iter
                (fun d ->
                  r_cur := (Relation.apply_delta !r_cur d).Relation.after;
                  u_rb := Universe.build [ !r_cur; p ])
                script)
        in
        let identical =
          universes_equal u_inc !u_rb
          && String.equal fp_inc (Relation.fingerprint r_inc)
        in
        let inc_ups = float updates /. inc_s in
        let rb_ups = float updates /. rb_s in
        Printf.printf
          "  batch %3d: incremental %9.0f updates/s, rebuild %9.0f \
           updates/s, speedup %6.1fx, final universes %s\n"
          batch inc_ups rb_ups (inc_ups /. rb_ups)
          (if identical then "identical" else "DIVERGED");
        (batch, updates, inc_s, rb_s, inc_ups, rb_ups, identical))
      batches
  in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, ok) -> ok) measurements
  in
  let speedup_at_1 =
    match measurements with
    | (1, _, _, _, inc, rb, _) :: _ -> inc /. rb
    | _ -> 0.
  in
  let crossover =
    List.find_map
      (fun (batch, _, _, _, inc, rb, _) -> if rb >= inc then Some batch else None)
      measurements
  in
  Printf.printf
    "  speedup at batch 1: %.1fx (floor: 5x); crossover batch: %s\n"
    speedup_at_1
    (match crossover with Some b -> string_of_int b | None -> "none measured");
  (* Row sweep at batch 1: updates/s is the best of three timed runs,
     and the counts come from one more, traced run of the same script,
     so the timed runs carry no Obs cost. *)
  let count_names =
    [ "relation.resolve_rows"; "relation.rows_hashed"; "universe.repair_profiles" ]
  in
  let sweep_updates = 256 in
  let sweep =
    List.map
      (fun n ->
        let r0, p = instance n in
        let script = gen_script r0 ~batch:1 ~updates:sweep_updates in
        let r, u, fp, secs = incremental r0 p script in
        let secs =
          List.fold_left
            (fun best _ ->
              let _, _, _, s = incremental r0 p script in
              Float.min best s)
            secs [ 2; 3 ]
        in
        let was_enabled = Obs.enabled () in
        Obs.reset ();
        Obs.set_enabled true;
        ignore (incremental r0 p script);
        let report = Obs.Report.snapshot () in
        Obs.set_enabled was_enabled;
        let counts =
          List.map (fun name -> (name, Obs.Report.counter report name)) count_names
        in
        (* The timed chain's own first [Relation.digest] and the traced
           chain's builds are not per-update work. *)
        let counts =
          List.map
            (fun (name, c) ->
              (name, if String.equal name "relation.rows_hashed" then c - n else c))
            counts
        in
        let ok =
          universes_equal u (Universe.build [ r; p ])
          && String.equal fp (Relation.fingerprint r)
        in
        let ups = float sweep_updates /. secs in
        Printf.printf
          "  %5d rows, batch 1: %7.0f updates/s; per update %s; %s\n" n ups
          (String.concat ", "
             (List.map
                (fun (name, c) ->
                  Printf.sprintf "%s %.1f" name (float c /. float sweep_updates))
                counts))
          (if ok then "identical" else "DIVERGED");
        (n, ups, counts, ok))
      (if full then [ 1_000; 4_000; 16_000 ] else [ 1_000; 4_000 ])
  in
  (match (sweep, List.rev sweep) with
  | (n0, ups0, _, _) :: _, (n1, ups1, _, _) :: _ ->
      Printf.printf "  batch-1 updates/s at %d rows / at %d rows: %.2fx\n" n0 n1
        (ups0 /. ups1)
  | [], _ | _, [] -> ());
  let path = "BENCH_CHURN.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ( "instance",
           Json.Str
             "synthetic (3,3) pair, duplicate-heavy value domain, churn on R \
              only" );
         ("rows", Json.int rows);
         ("values", Json.int values);
         ("classes", Json.int (Universe.n_classes u0));
         ("updates_per_size", Json.int total_updates);
         ( "batches",
           Json.List
             (List.map
                (fun (batch, updates, inc_s, rb_s, inc_ups, rb_ups, ok) ->
                  Json.Obj
                    [
                      ("batch", Json.int batch);
                      ("updates", Json.int updates);
                      ("incremental_s", Json.Num inc_s);
                      ("rebuild_s", Json.Num rb_s);
                      ("incremental_updates_per_s", Json.Num inc_ups);
                      ("rebuild_updates_per_s", Json.Num rb_ups);
                      ("speedup", Json.Num (inc_ups /. rb_ups));
                      ("identical", Json.Bool ok);
                    ])
                measurements) );
         ("identical", Json.Bool all_identical);
         ("speedup_at_batch_1", Json.Num speedup_at_1);
         ( "crossover_batch",
           match crossover with Some b -> Json.int b | None -> Json.Null );
         ( "sweep",
           Json.List
             (List.map
                (fun (n, ups, counts, ok) ->
                  Json.Obj
                    (List.concat
                       [
                         [
                           ("rows", Json.int n);
                           ("batch", Json.int 1);
                           ("updates", Json.int sweep_updates);
                           ("updates_per_s", Json.Num ups);
                           ("identical", Json.Bool ok);
                         ];
                         List.map (fun (name, c) -> (name, Json.int c)) counts;
                       ]))
                sweep) );
       ]);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Observability overhead: instrumentation on vs off (ISSUE 2).        *)
(* ------------------------------------------------------------------ *)

(* A/B of the jqi.obs layer on the fig6 L2S workload: full L2S inference
   runs on TPC-H Joins 4 and 5 at scale 1, with instrumentation disabled
   and enabled.  The gated measure is the minor words that enabling Obs
   adds to one pass; the wall-clock overhead (budget <2%) is reported
   beside it.  Disabled overhead is a flag load per call site and should
   not be measurable at all.  Results land in BENCH_obs.json. *)
let run_obs ~full ~seed =
  let module Json = Jqi_util.Json in
  section_header
    "Observability overhead — jqi.obs disabled vs enabled (fig6 L2S workload)";
  let db = Tpch.generate ~seed ~scale:1 () in
  let joins = Tpch.joins db in
  let workloads =
    List.map
      (fun (join : Tpch.goal_join) ->
        let universe = Universe.build [ join.r; join.p ] in
        let goal = Tpch.goal_predicate (Universe.omega universe) join in
        (universe, goal))
      [ List.nth joins 3; List.nth joins 4 ]
  in
  let workload () =
    List.iter
      (fun (universe, goal) ->
        ignore
          (Jqi_core.Inference.run universe (Strategy.lks 2)
             (Jqi_core.Oracle.honest ~goal)))
      workloads
  in
  (* A workload pass is ~0.2s (L2S spends ~20 ms/choice on these joins), so
     a timed rep batches a handful of passes; medians of several reps are
     compared. *)
  let iters = if full then 20 else 5 in
  let reps = 5 in
  let timed_rep () =
    let t0 = Jqi_util.Timer.now () in
    for _ = 1 to iters do
      workload ()
    done;
    Jqi_util.Timer.now () -. t0
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  workload ();
  (* warmup *)
  (* The gated measure: minor words one pass allocates with Obs
     disabled and enabled.  A pass allocates the same words on every run
     of one build, so the words Obs adds are comparable across runs,
     unlike the wall-clock overhead, which moves by several percent
     between back-to-back runs. *)
  let pass_words () =
    let w0 = Gc.minor_words () in
    workload ();
    Gc.minor_words () -. w0
  in
  Obs.set_enabled false;
  let words_off = pass_words () in
  Obs.reset ();
  Obs.set_enabled true;
  let words_on = pass_words () in
  let words_added = words_on -. words_off in
  (* Alternate off/on reps so drift (thermal, GC heap shape) hits both. *)
  let disabled = ref [] and enabled = ref [] in
  for _ = 1 to reps do
    Obs.set_enabled false;
    disabled := timed_rep () :: !disabled;
    Obs.reset ();
    Obs.set_enabled true;
    enabled := timed_rep () :: !enabled
  done;
  let report = Obs.Report.snapshot () in
  Obs.set_enabled false;
  let d = median !disabled and e = median !enabled in
  let overhead_pct = (e /. d -. 1.) *. 100. in
  Printf.printf
    "L2S on TPC-H joins 4+5, %d passes/rep, %d reps:\n\
    \  disabled %8.4fs/rep\n\
    \  enabled  %8.4fs/rep\n\
    \  overhead %+.2f%%  (budget: <2%%, wall clock, not gated)\n\
    \  minor words/pass: disabled %.0f, enabled %.0f, added by Obs %.0f \
     (%+.2f%%)\n"
    iters reps d e overhead_pct words_off words_on words_added
    (words_added /. words_off *. 100.);
  let grab name = (name, Json.int (Obs.Report.counter report name)) in
  let path = "BENCH_obs.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ("workload", Json.Str "fig6 L2S full inference, TPC-H joins 4+5, scale 1");
         ("iters_per_rep", Json.int iters);
         ("reps", Json.int reps);
         ("disabled_s", Json.Num d);
         ("enabled_s", Json.Num e);
         ("overhead_pct", Json.Num overhead_pct);
         ("minor_words_disabled", Json.Num words_off);
         ("minor_words_enabled", Json.Num words_on);
         ("obs_minor_words", Json.Num words_added);
         ( "metrics",
           Json.Obj
             (List.map grab
                [
                  "oracle.questions"; "strategy.choices";
                  "lookahead.candidates_scored"; "lookahead.candidates_pruned";
                  "lookahead.candidates_bounded";
                  "lookahead.branch_cache_hit"; "lookahead.branch_cache_miss";
                  "state.certainty_scans"; "state.labels";
                ]) );
       ]);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Service layer: questions/sec through the full protocol stack.       *)
(* ------------------------------------------------------------------ *)

(* N sessions per TPC-H join, every request going through the wire codec
   ([Service.handle_line] on encoded frames) with an honest oracle driven
   from the goal predicate.  The first session per join pays the universe
   build; every later one must hit the cache — the hit rate lands in
   BENCH_server.json so CI can assert Ω really is built once. *)
let run_server ~full ~seed =
  let module Json = Jqi_util.Json in
  let module Relation = Jqi_relational.Relation in
  let module Omega = Jqi_core.Omega in
  let module Sample = Jqi_core.Sample in
  let module Catalog = Jqi_server.Catalog in
  let module Manager = Jqi_server.Manager in
  let module P = Jqi_server.Protocol in
  let module Service = Jqi_server.Service in
  section_header
    "Service layer — questions/sec and universe cache (TPC-H joins 4+5)";
  let db = Tpch.generate ~seed ~scale:1 () in
  let joins = Tpch.joins db in
  let picks = [ List.nth joins 3; List.nth joins 4 ] in
  let catalog = Catalog.create () in
  List.iter
    (fun (j : Tpch.goal_join) ->
      Catalog.add catalog j.r;
      Catalog.add catalog j.p)
    picks;
  let manager = Manager.create ~seed catalog in
  let sessions_per_join = if full then 50 else 10 in
  let next_id = ref 0 in
  let call req =
    incr next_id;
    Service.handle_line manager (P.encode_request ~id:!next_id req)
  in
  let questions = ref 0 in
  let drive (j : Tpch.goal_join) =
    let omega = Omega.of_schemas (Relation.schema j.r) (Relation.schema j.p) in
    let goal = Tpch.goal_predicate omega j in
    let session =
      match
        P.decode_response
          (call
             (P.Open_session
                { r = Relation.name j.r; p = Relation.name j.p; strategy = "td" }))
      with
      | Ok (_, P.Opened { session; _ }) -> session
      | _ -> failwith "server bench: open failed"
    in
    let rec loop resp =
      match P.decode_response resp with
      | Ok (_, P.Question { q_r_row; q_p_row; _ }) ->
          incr questions;
          let s = Sample.signature_of_tuple omega j.r j.p (q_r_row, q_p_row) in
          let label =
            if Bits.subset goal s then Sample.Positive else Sample.Negative
          in
          loop (call (P.Tell { session; label }))
      | Ok (_, P.Done _) -> ()
      | _ -> failwith "server bench: protocol failure"
    in
    loop (call (P.Ask { session }));
    ignore (call (P.Close { session }))
  in
  let t0 = Jqi_util.Timer.now () in
  for _ = 1 to sessions_per_join do
    List.iter drive picks
  done;
  let elapsed = Jqi_util.Timer.now () -. t0 in
  let hits, misses = Catalog.stats catalog in
  let hit_rate = float_of_int hits /. float_of_int (hits + misses) in
  let sessions = 2 * sessions_per_join in
  let qps = float_of_int !questions /. elapsed in
  Printf.printf
    "%d sessions (%d per join), %d questions in %.3fs through the JSON \
     codec:\n\
    \  %10.0f questions/sec\n\
    \  universe cache: %d hits / %d misses (hit rate %.3f)\n"
    sessions sessions_per_join !questions elapsed qps hits misses hit_rate;
  let path = "BENCH_server.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ( "workload",
           Json.Str
             "TD inference sessions over TPC-H joins 4+5 via Service.handle_line" );
         ("sessions", Json.int sessions);
         ("questions", Json.int !questions);
         ("elapsed_s", Json.Num elapsed);
         ("questions_per_sec", Json.Num qps);
         ("cache_hits", Json.int hits);
         ("cache_misses", Json.int misses);
         ("cache_hit_rate", Json.Num hit_rate);
       ]);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Server load: concurrent listener fleet vs single-client baseline.   *)
(* ------------------------------------------------------------------ *)

(* The paper's deployment is crowdsourced labeling: the server idles
   between a labeler's answers.  The baseline below is the stdin/stdout
   deployment ([Service.serve_channels] over a socketpair) driven by ONE
   client whose oracle thinks for [think] seconds before every answer —
   throughput is capped near 1/think.  The fleet run drives the same
   protocol through the real [Listener] + [Pool] front end with many
   concurrent client domains, overlapping their think time; the speedup
   is the whole point of the concurrent server and CI asserts its floor.
   Both runs must infer byte-identical predicates (the differential). *)
let run_server_load ~full ~seed =
  let module Json = Jqi_util.Json in
  let module Stats = Jqi_util.Stats in
  let module Relation = Jqi_relational.Relation in
  let module Omega = Jqi_core.Omega in
  let module Sample = Jqi_core.Sample in
  let module Catalog = Jqi_server.Catalog in
  let module Manager = Jqi_server.Manager in
  let module P = Jqi_server.Protocol in
  let module Service = Jqi_server.Service in
  let module Pool = Jqi_server.Pool in
  let module Listener = Jqi_server.Listener in
  section_header
    "Server load — concurrent listener fleet vs single-client baseline";
  let db = Tpch.generate ~seed ~scale:1 () in
  let joins = Tpch.joins db in
  let picks = [| List.nth joins 3; List.nth joins 4 |] in
  let goals =
    Array.map
      (fun (j : Tpch.goal_join) ->
        let omega =
          Omega.of_schemas (Relation.schema j.r) (Relation.schema j.p)
        in
        (j, omega, Tpch.goal_predicate omega j))
      picks
  in
  let n_joins = Array.length goals in
  let make_manager () =
    let catalog = Catalog.create () in
    Array.iter
      (fun (j : Tpch.goal_join) ->
        Catalog.add catalog j.r;
        Catalog.add catalog j.p)
      picks;
    (catalog, Manager.create ~seed catalog)
  in
  let think = 0.025 in
  let base_sessions = if full then 12 else 8 in
  let clients = if full then 32 else 16 in
  let sessions_per_client = if full then 8 else 4 in
  let workers = 4 in
  (* One honest session over the line transport [call]; the oracle
     sleeps [think] before each answer.  Wire latency (request sent →
     response parsed, think time excluded) accumulates in [latencies]. *)
  let drive_session ~latencies ~questions ~next_id ~call k =
    let (j : Tpch.goal_join), omega, goal = goals.(k) in
    let rpc req =
      incr next_id;
      let line = P.encode_request ~id:!next_id req in
      let t0 = Jqi_util.Timer.now () in
      let resp = call line in
      latencies := (Jqi_util.Timer.now () -. t0) :: !latencies;
      P.decode_response resp
    in
    let session =
      match
        rpc
          (P.Open_session
             { r = Relation.name j.r; p = Relation.name j.p; strategy = "td" })
      with
      | Ok (_, P.Opened { session; _ }) -> session
      | _ -> failwith "server-load: open failed"
    in
    let rec loop resp =
      match resp with
      | Ok (_, P.Question { q_r_row; q_p_row; _ }) ->
          incr questions;
          let s = Sample.signature_of_tuple omega j.r j.p (q_r_row, q_p_row) in
          let label =
            if Bits.subset goal s then Jqi_core.Sample.Positive
            else Jqi_core.Sample.Negative
          in
          Unix.sleepf think;
          loop (rpc (P.Tell { session; label }))
      | Ok (_, P.Done { predicate; _ }) ->
          ignore (rpc (P.Close { session }));
          predicate
      | _ -> failwith "server-load: protocol failure"
    in
    loop (rpc (P.Ask { session }))
  in
  let line_call ic oc line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  (* Baseline: the blocking single-client loop over a socketpair. *)
  let _catalog_b, manager_b = make_manager () in
  let srv_fd, cli_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_thread =
    Thread.create
      (fun () ->
        Service.serve_channels manager_b
          (Unix.in_channel_of_descr srv_fd)
          (Unix.out_channel_of_descr srv_fd))
      ()
  in
  let base_ic = Unix.in_channel_of_descr cli_fd in
  let base_oc = Unix.out_channel_of_descr cli_fd in
  let base_latencies = ref [] in
  let base_questions = ref 0 in
  let base_next_id = ref 0 in
  let base_predicates = Array.make n_joins [] in
  let t0 = Jqi_util.Timer.now () in
  for s = 0 to base_sessions - 1 do
    let k = s mod n_joins in
    base_predicates.(k) <-
      drive_session ~latencies:base_latencies ~questions:base_questions
        ~next_id:base_next_id
        ~call:(line_call base_ic base_oc)
        k
  done;
  let base_elapsed = Jqi_util.Timer.now () -. t0 in
  close_out base_oc;
  Thread.join server_thread;
  Unix.close srv_fd;
  let base_qps = float_of_int !base_questions /. base_elapsed in
  (* Fleet: client domains against the real listener + worker pool. *)
  let catalog_f, manager_f = make_manager () in
  let pool = Pool.create ~capacity:256 ~workers () in
  let listener = Listener.start ~pool manager_f (Listener.Tcp ("127.0.0.1", 0)) in
  let port =
    match Listener.address listener with
    | Listener.Tcp (_, p) -> p
    | Listener.Unix_path _ -> failwith "server-load: expected a tcp address"
  in
  let run_client c =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let latencies = ref [] in
    let questions = ref 0 in
    let next_id = ref 0 in
    let preds = Array.make n_joins [] in
    for s = 0 to sessions_per_client - 1 do
      let k = (c + s) mod n_joins in
      preds.(k) <-
        drive_session ~latencies ~questions ~next_id ~call:(line_call ic oc) k
    done;
    close_out oc;
    (!latencies, !questions, preds)
  in
  (* [clients] connections spread over a few client domains, one
     systhread per connection: blocking IO and think-time sleeps release
     the runtime lock, so connections overlap within a domain, and a low
     domain count keeps minor-GC stop-the-world sync cheap on small
     machines. *)
  let client_domains = 4 in
  let per_domain = (clients + client_domains - 1) / client_domains in
  let t1 = Jqi_util.Timer.now () in
  let domains =
    List.init client_domains (fun d ->
        Domain.spawn (fun () ->
            let lo = min clients (d * per_domain) in
            let hi = min clients (lo + per_domain) in
            let slots =
              List.init (hi - lo) (fun i ->
                  let out = ref ([], 0, Array.make n_joins []) in
                  ( out,
                    Thread.create (fun () -> out := run_client (lo + i)) () ))
            in
            List.map
              (fun (out, th) ->
                Thread.join th;
                !out)
              slots))
  in
  let results = List.concat_map Domain.join domains in
  let fleet_elapsed = Jqi_util.Timer.now () -. t1 in
  let leaked = Manager.session_count manager_f in
  Listener.stop listener;
  Pool.shutdown pool;
  let fleet_questions =
    List.fold_left (fun acc (_, q, _) -> acc + q) 0 results
  in
  let fleet_latencies =
    Array.of_list (List.concat_map (fun (ls, _, _) -> ls) results)
  in
  let fleet_qps = float_of_int fleet_questions /. fleet_elapsed in
  let speedup = fleet_qps /. base_qps in
  let p50 = Stats.percentile fleet_latencies 50. *. 1e3 in
  let p99 = Stats.percentile fleet_latencies 99. *. 1e3 in
  let pool_stats = Pool.stats pool in
  let hits, misses = Catalog.stats catalog_f in
  let hit_rate = float_of_int hits /. float_of_int (hits + misses) in
  (* The differential: every fleet session must land on the baseline's
     predicate for its join, attribute pair for attribute pair. *)
  let pred_equal =
    List.equal (fun (a, b) (c, d) -> String.equal a c && String.equal b d)
  in
  let theta_match =
    List.for_all
      (fun (_, _, preds) ->
        Array.for_all2
          (fun base mine ->
            match mine with [] -> true | _ :: _ -> pred_equal base mine)
          base_predicates preds)
      results
  in
  let fleet_sessions = clients * sessions_per_client in
  Printf.printf
    "think time %.0fms/answer; baseline 1 client x %d sessions, fleet %d \
     clients x %d sessions on %d worker domains:\n\
    \  baseline %8.0f questions/sec  (%d questions, %.2fs)\n\
    \  fleet    %8.0f questions/sec  (%d questions, %.2fs)\n\
    \  speedup  %8.2fx  (CI floor: 5x)\n\
    \  latency  p50 %.2fms  p99 %.2fms  (wire, think time excluded)\n\
    \  shed %d of %d submitted; universe cache %d hits / %d misses \
     (%.3f)\n\
    \  predicates %s baseline; %d sessions leaked\n"
    (think *. 1e3) base_sessions clients sessions_per_client workers base_qps
    !base_questions base_elapsed fleet_qps fleet_questions fleet_elapsed
    speedup p50 p99 pool_stats.Pool.shed pool_stats.Pool.submitted hits misses
    hit_rate
    (if theta_match then "identical to" else "DIVERGED from")
    leaked;
  let path = "BENCH_server.json" in
  Json.save_file path
    (Json.Obj
       [
         ("seed", Json.int seed);
         ( "workload",
           Json.Str
             "TD inference fleet over TPC-H joins 4+5 via the concurrent \
              listener, vs the blocking single-client loop" );
         ("think_ms", Json.Num (think *. 1e3));
         ("sessions", Json.int fleet_sessions);
         ("questions", Json.int fleet_questions);
         ("elapsed_s", Json.Num fleet_elapsed);
         ("questions_per_sec", Json.Num fleet_qps);
         ("cache_hits", Json.int hits);
         ("cache_misses", Json.int misses);
         ("cache_hit_rate", Json.Num hit_rate);
         ("clients", Json.int clients);
         ("workers", Json.int workers);
         ("baseline_sessions", Json.int base_sessions);
         ("baseline_questions", Json.int !base_questions);
         ("baseline_elapsed_s", Json.Num base_elapsed);
         ("baseline_questions_per_sec", Json.Num base_qps);
         ("speedup", Json.Num speedup);
         ("latency_p50_ms", Json.Num p50);
         ("latency_p99_ms", Json.Num p99);
         ("shed", Json.int pool_stats.Pool.shed);
         ("pool_submitted", Json.int pool_stats.Pool.submitted);
         ("pool_completed", Json.int pool_stats.Pool.completed);
         ("pool_max_depth", Json.int pool_stats.Pool.max_depth);
         ("theta_match", Json.Bool theta_match);
         ("sessions_leaked", Json.int leaked);
       ]);
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro_tests ~seed =
  let open Bechamel in
  let db = Tpch.generate ~seed ~scale:1 () in
  let joins = Tpch.joins db in
  let join4 = List.nth joins 3 in
  let universe = Universe.build [ join4.r; join4.p ] in
  let omega = Universe.omega universe in
  let goal = Tpch.goal_predicate omega join4 in
  let mid_state () =
    (* A state mid-inference: a couple of TD-chosen labels. *)
    let st = State.create universe in
    let oracle = Jqi_core.Oracle.honest ~goal in
    (match Strategy.choose Strategy.td st with
    | Some c -> State.label st c (Jqi_core.Oracle.label oracle universe c)
    | None -> ());
    (match Strategy.choose Strategy.td st with
    | Some c -> State.label st c (Jqi_core.Oracle.label oracle universe c)
    | None -> ());
    st
  in
  let st = mid_state () in
  let informative = State.informative_classes st in
  let some_cls = List.hd informative in
  let synth_prng = Prng.create seed in
  let r_synth, p_synth = Synth.generate synth_prng (Synth.config 3 3 50 100) in
  let phi = Jqi_sat.Threesat.random (Prng.create seed) ~nvars:8 ~nclauses:24 in
  let cnf = Jqi_sat.Threesat.to_cnf phi in
  let red = Jqi_semijoin.Reduction.build phi in
  [
    (* Fig 6 critical path: quotienting the Cartesian product. *)
    Test.make ~name:"fig6:universe_build_quotient(J4,scale1)"
      (Staged.stage (fun () -> Universe.build [ join4.r; join4.p ]));
    Test.make ~name:"fig6:universe_build_naive(J4,scale1)"
      (Staged.stage (fun () -> Universe.build_naive join4.r join4.p));
    (* §3.4 / Theorem 3.5: the PTIME informativeness test. *)
    Test.make ~name:"fig6:informative_scan"
      (Staged.stage (fun () -> State.informative_classes st));
    (* Fig 6/7 lookahead inner loops. *)
    Test.make ~name:"fig7:entropy1"
      (Staged.stage (fun () -> Entropy.entropy1 st some_cls));
    Test.make ~name:"fig7:entropy2"
      (Staged.stage (fun () -> Entropy.entropy_k st 2 some_cls));
    Test.make ~name:"fig7:entropy2_ref"
      (Staged.stage (fun () -> Entropy.reference_k st 2 some_cls));
    (* One full strategy step each. *)
    Test.make ~name:"fig6:step_BU" (Staged.stage (fun () -> Strategy.choose Strategy.bu st));
    Test.make ~name:"fig6:step_TD" (Staged.stage (fun () -> Strategy.choose Strategy.td st));
    Test.make ~name:"fig6:step_L1S" (Staged.stage (fun () -> Strategy.choose Strategy.l1s st));
    (* Table 1 synth column: one full inference run. *)
    Test.make ~name:"fig7:full_run_TD(3,3,50,100)"
      (Staged.stage (fun () ->
           let u = Universe.build [ r_synth; p_synth ] in
           let g = List.hd (Universe.signatures u) in
           E.Runner.run_goal u ~goal:g [ Strategy.td ]));
    (* Substrates. *)
    Test.make ~name:"substrate:hash_join(J4)"
      (Staged.stage (fun () ->
           Jqi_relational.Join.equijoin join4.r join4.p
             (Jqi_relational.Join.predicate_of_names join4.r join4.p join4.pairs)));
    Test.make ~name:"substrate:dpll(3sat n=8 m=24)"
      (Staged.stage (fun () -> Jqi_sat.Dpll.solve cnf));
    Test.make ~name:"thm6.1:cons_solve(n=8)"
      (Staged.stage (fun () ->
           Jqi_semijoin.Cons.consistent red.r red.p red.omega red.sample));
    Test.make ~name:"substrate:sql_group_by(orders)"
      (Staged.stage
         (let catalog = [ ("orders", db.orders) ] in
          fun () ->
            Jqi_sql.Engine.query catalog
              "SELECT o_orderstatus, COUNT(*) AS n, SUM(o_totalprice) AS s \
               FROM orders GROUP BY o_orderstatus"));
    Test.make ~name:"substrate:sql_parse"
      (Staged.stage (fun () ->
           Jqi_sql.Parser.parse
             "SELECT a, COUNT(*) AS n FROM t JOIN u ON a = b WHERE c >= 3 \
              GROUP BY a HAVING n > 1 ORDER BY n DESC LIMIT 10"));
    Test.make ~name:"extension:joinpath_build(3x20)"
      (Staged.stage
         (let prng3 = Prng.create seed in
          let mk name =
            let r, _ = Synth.generate prng3 (Synth.config 2 2 20 5) in
            Jqi_relational.Relation.with_name r name
          in
          let rels = [ mk "r1"; mk "r2"; mk "r3" ] in
          fun () -> Universe.build ~edges:[ (0, 1); (1, 2) ] rels));
  ]

let run_micro ~seed =
  section_header "Bechamel micro-benchmarks (per-figure critical operations)";
  let open Bechamel in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"jqi" ~fmt:"%s %s" (micro_tests ~seed))
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> e
          | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_string
    (Jqi_util.Ascii_table.render
       ~headers:[ "benchmark"; "time/run" ]
       (List.map
          (fun (name, ns) ->
            [
              name;
              (if Float.is_nan ns then "n/a"
               else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
               else if ns < 1e6 then Printf.sprintf "%.2f µs" (ns /. 1e3)
               else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
               else Printf.sprintf "%.2f s" (ns /. 1e9));
            ])
          rows))

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let all_sections =
  [ "fig6"; "fig7"; "table1"; "semijoin"; "scaling"; "ablation"; "universe";
    "kary"; "storage"; "churn"; "obs"; "server"; "server-load"; "micro" ]

let run sections full seed universe_spec =
  let sections = if sections = [] then all_sections else sections in
  List.iter
    (fun s ->
      if not (List.mem s all_sections) then (
        Printf.eprintf "unknown section %S (known: %s)\n" s
          (String.concat ", " all_sections);
        exit 2))
    sections;
  let builder, builder_label =
    match universe_builder_of ~seed universe_spec with
    | Some b -> (b, String.lowercase_ascii (String.trim universe_spec))
    | None ->
        Printf.eprintf
          "bad --universe %S (expected naive|quotient|sampled:<pairs>)\n"
          universe_spec;
        exit 2
  in
  let t0 = Jqi_util.Timer.now () in
  Printf.printf
    "jqi bench — reproduction of 'Interactive Inference of Join Queries' \
     (EDBT 2014)\nmode: %s, seed: %d, universe builder: %s, sections: %s\n"
    (if full then "full" else "quick")
    seed builder_label
    (String.concat " " sections);
  let want s = List.mem s sections in
  (* table1 is derived from fig6 + fig7 results; run them if needed. *)
  let need_fig6 = want "fig6" || want "table1" in
  let need_fig7 = want "fig7" || want "table1" in
  let fig6_results =
    if need_fig6 then Some (run_fig6 ~full ~seed ~builder ~builder_label)
    else None
  in
  let fig7_results =
    if need_fig7 then Some (run_fig7 ~full ~seed ~builder ~builder_label)
    else None
  in
  if want "table1" then
    run_table1
      ~fig6_results:(Option.get fig6_results)
      ~fig7_results:(Option.get fig7_results);
  if want "semijoin" then run_semijoin ~full ~seed;
  if want "scaling" then run_scaling ~full ~seed;
  if want "ablation" then run_ablation ~full ~seed;
  if want "universe" then run_universe ~full ~seed;
  if want "kary" then run_kary ~full ~seed;
  if want "storage" then run_storage ~full ~seed;
  if want "churn" then run_churn ~full ~seed;
  if want "obs" then run_obs ~full ~seed;
  if want "server" then run_server ~full ~seed;
  if want "server-load" then run_server_load ~full ~seed;
  if want "micro" then run_micro ~seed;
  Printf.printf "\nTotal bench time: %.1fs\n" (Jqi_util.Timer.now () -. t0)

open Cmdliner

let sections_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"SECTION"
        ~doc:"Sections to run: fig6, fig7, table1, semijoin, micro. Default: all.")

let full_arg =
  Arg.(value & flag & info [ "full" ] ~doc:"Run at paper-scale parameters (slow).")

let seed_arg = Arg.(value & opt int 2014 & info [ "seed" ] ~doc:"PRNG seed.")

let universe_spec_arg =
  Arg.(
    value & opt string "quotient"
    & info [ "universe" ] ~docv:"BUILDER"
        ~doc:"Universe constructor for the fig6/fig7 universes (mirrors \
              jqinfer): naive, quotient or sampled:<pairs>.")

let cmd =
  Cmd.v
    (Cmd.info "jqi-bench" ~doc:"Reproduce the paper's tables and figures")
    Term.(const run $ sections_arg $ full_arg $ seed_arg $ universe_spec_arg)

let () = exit (Cmd.eval cmd)
