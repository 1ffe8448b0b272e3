(* Differential suite for the k-ary machinery: on random small NULL- and
   duplicate-heavy instances over 2–4 relations, Leapfrog Triejoin (under
   every candidate variable ordering) must agree with the left-deep
   pairwise composition and with the never-optimized nested-loop oracle
   on result multisets; [Universe.build] must reproduce
   [Universe.build_kary_naive] exactly at every k, match the binary
   oracle [build_naive] on two relations, reproduce
   [build_kary_naive ~edges] under any edge set (chain, star, single
   edge, disconnected), and refuse oversized k >= 3 walks with the
   typed [Kary_too_large] (never at k = 2); sampled
   universes must depend only on the seed and, on two relations, draw
   each pair as (row of R, row of P). *)

module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Leapfrog = Jqi_relational.Leapfrog
module Ordering = Jqi_relational.Ordering
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe

let relation_of name prefix rows =
  let arity = match rows with [] -> 1 | row :: _ -> Tuple.arity row in
  Relation.of_list ~name
    ~schema:
      (Schema.of_names ~ty:Value.TInt
         (List.init arity (fun i -> Printf.sprintf "%s%d" prefix i)))
    rows

let universes_agree = Fixtures.universes_agree

(* ------------------------- instance generator ---------------------- *)

(* NULL- and duplicate-heavy mixed-type cells over tiny pools so cross
   bits actually fire and quotient classes repeat. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Value.Int i) (int_bound 2));
        (3, return Value.Null);
        (1, return (Value.Float Float.nan));
        (1, map (fun i -> Value.Float (float_of_int i)) (int_bound 1));
        (1, map (fun i -> Value.Str (String.make 1 (Char.chr (97 + i)))) (int_bound 1));
      ])

(* [k] relations, arities 1–2, 1–4 rows each, drawn from per-relation
   pools so duplicate rows are common. *)
let gen_instance ~min_k ~max_k ~max_rows =
  QCheck.Gen.(
    let row arity = map Tuple.of_list (list_repeat arity gen_cell) in
    let rows_of arity =
      let* dup = bool in
      if dup then
        let* pool = list_size (int_range 1 2) (row arity) in
        list_size (int_range 1 max_rows) (oneofl pool)
      else list_size (int_range 1 max_rows) (row arity)
    in
    let* k = int_range min_k max_k in
    let rel _ =
      let* arity = int_range 1 2 in
      rows_of arity
    in
    let rec build i acc =
      if i >= k then return (List.rev acc)
      else
        let* rows = rel i in
        build (i + 1) (rows :: acc)
    in
    build 0 [])

let relations_of rowss =
  List.mapi
    (fun i rows ->
      relation_of
        (Printf.sprintf "r%d" i)
        (String.make 1 (Char.chr (97 + i)))
        rows)
    rowss

let print_instance rowss =
  String.concat " | "
    (List.map
       (fun rows -> String.concat ";" (List.map Tuple.to_string rows))
       rowss)

(* Random equality constraints between adjacent-ish relations so the
   join is neither empty-by-construction nor a pure cross product. *)
let gen_eqs rels =
  QCheck.Gen.(
    let k = Array.length rels in
    let arity i = Schema.arity (Relation.schema rels.(i)) in
    let pos =
      let* i = int_range 0 (k - 1) in
      let* c = int_bound (arity i - 1) in
      return (i, c)
    in
    let chain =
      (* a chain i ~ i+1 keeps most instances connected *)
      let rec go i acc =
        if i >= k - 1 then return (List.rev acc)
        else
          let* c1 = int_bound (arity i - 1)
          and* c2 = int_bound (arity (i + 1) - 1) in
          go (i + 1) (((i, c1), (i + 1, c2)) :: acc)
      in
      go 0 []
    in
    let* base = chain in
    let* extra = list_size (int_bound 2) (pair pos pos) in
    return (base @ extra))

let gen_join_problem =
  QCheck.Gen.(
    let* rowss = gen_instance ~min_k:2 ~max_k:4 ~max_rows:4 in
    let rels = Array.of_list (relations_of rowss) in
    let* eqs = gen_eqs rels in
    return (rowss, eqs))

let arb_join_problem =
  QCheck.make
    ~print:(fun (rowss, eqs) ->
      Printf.sprintf "%s eqs=[%s]" (print_instance rowss)
        (String.concat "; "
           (List.map
              (fun ((i, c), (j, d)) -> Printf.sprintf "(%d,%d)=(%d,%d)" i c j d)
              eqs)))
    gen_join_problem

(* Canonical multiset form of a join result. *)
let canon results =
  let l = List.map Array.to_list (Array.to_list results) in
  List.sort (List.compare Int.compare) l

let row_lists_equal a b = List.equal (List.equal Int.equal) a b

(* ------------------------- join differential ----------------------- *)

let qcheck_triejoin_matches_oracles =
  QCheck.Test.make
    ~name:"triejoin (all orderings) = reference = compose on multisets"
    ~count:600 arb_join_problem (fun (rowss, eqs) ->
      let rels = Array.of_list (relations_of rowss) in
      let expected = canon (Leapfrog.reference rels eqs) in
      let composed = canon (Leapfrog.compose rels eqs) in
      row_lists_equal expected composed
      && List.for_all
           (fun order ->
             row_lists_equal expected (canon (Leapfrog.join ~order rels eqs)))
           (Ordering.candidates (Leapfrog.variables rels eqs)))

let test_join_null_semantics () =
  (* NULL = NULL and NaN = NaN never join, matching signature bits. *)
  let r = relation_of "r" "a" [ Tuple.of_list [ Value.Null ] ] in
  let p = relation_of "p" "b" [ Tuple.of_list [ Value.Null ] ] in
  let rels = [| r; p |] in
  let eqs = [ ((0, 0), (1, 0)) ] in
  Alcotest.(check int) "NULL never joins" 0
    (Array.length (Leapfrog.join rels eqs));
  let fnan = Tuple.of_list [ Value.Float Float.nan ] in
  let rels2 = [| relation_of "r" "a" [ fnan ]; relation_of "p" "b" [ fnan ] |] in
  Alcotest.(check int) "NaN never joins" 0
    (Array.length (Leapfrog.join rels2 eqs));
  Alcotest.(check int) "reference agrees" 0
    (Array.length (Leapfrog.reference rels2 eqs))

let test_join_cross_product () =
  (* No constraints: every evaluator returns the full product. *)
  let mk n name pre =
    relation_of name pre (List.init n (fun i -> Tuple.of_list [ Value.Int i ]))
  in
  let rels = [| mk 2 "r" "a"; mk 3 "p" "b" |] in
  Alcotest.(check int) "cross product size" 6
    (Array.length (Leapfrog.join rels []));
  Alcotest.(check int) "compose agrees" 6
    (Array.length (Leapfrog.compose rels []))

(* ------------------------------ unary ------------------------------ *)

let qcheck_unary_is_set_intersection =
  QCheck.Test.make ~name:"unary leapfrog = sorted set intersection" ~count:300
    QCheck.(
      make
        ~print:(fun ls ->
          String.concat " | "
            (List.map
               (fun l -> String.concat ";" (List.map string_of_int l))
               ls))
        Gen.(list_size (int_range 1 4) (list_size (int_bound 12) (int_bound 9))))
    (fun raw ->
      let sets =
        List.map (fun l -> List.sort_uniq Int.compare l) raw
      in
      let arrays = List.map Array.of_list sets in
      let expected =
        match sets with
        | [] -> []
        | first :: rest ->
            List.filter
              (fun v -> List.for_all (List.exists (Int.equal v)) rest)
              first
      in
      List.equal Int.equal expected (Leapfrog.unary arrays))

let test_unary_empty_input () =
  Alcotest.check_raises "intersection of no sets"
    (Invalid_argument "Leapfrog.unary: intersection of no sets") (fun () ->
      ignore (Leapfrog.unary []))

(* ------------------------ universe differential -------------------- *)

let arb_instance ~min_k ~max_k ~max_rows =
  QCheck.make ~print:print_instance (gen_instance ~min_k ~max_k ~max_rows)

let qcheck_kary_quotient_equals_naive =
  QCheck.Test.make ~name:"build_kary = build_kary_naive (k = 2..4)" ~count:250
    (arb_instance ~min_k:2 ~max_k:4 ~max_rows:4)
    (fun rowss ->
      let rels = relations_of rowss in
      universes_agree (Universe.build_kary_naive rels) (Universe.build rels))

let qcheck_k2_is_binary_build =
  QCheck.Test.make ~name:"k = 2 build_kary = Universe.build (byte identity)"
    ~count:250
    (arb_instance ~min_k:2 ~max_k:2 ~max_rows:6)
    (fun rowss ->
      match relations_of rowss with
      | [ r; p ] ->
          let b = Universe.build [ r; p ] and k = Universe.build_naive r p in
          universes_agree b k
          && Int.equal
               (Omega.width (Universe.omega b))
               (Omega.width (Universe.omega k))
      | _ -> false)

(* Edge sets over k relations: a chain, a star, a single edge, a
   disconnected mask (relation 2 alone at k = 3, two components at
   k = 4) or any non-empty subset of the pairs. *)
let gen_edges k =
  QCheck.Gen.(
    let all =
      List.concat (List.init k (fun i -> List.init (k - 1 - i) (fun d -> (i, i + 1 + d))))
    in
    oneof
      [
        return (List.init (k - 1) (fun i -> (i, i + 1)));
        map
          (fun c ->
            List.filter_map
              (fun j ->
                if Int.equal j c then None else Some (Int.min c j, Int.max c j))
              (List.init k Fun.id))
          (int_bound (k - 1));
        map (fun e -> [ e ]) (oneofl all);
        return (if k >= 4 then [ (0, 1); (2, 3) ] else [ (0, 1) ]);
        map
          (fun mask -> List.filteri (fun b _ -> mask land (1 lsl b) <> 0) all)
          (int_range 1 ((1 lsl List.length all) - 1));
      ])

let print_edges edges =
  String.concat ";" (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) edges)

let qcheck_edges_equals_naive =
  QCheck.Test.make ~name:"build ~edges = build_kary_naive ~edges" ~count:250
    (QCheck.make
       ~print:(fun (rowss, edges) ->
         Printf.sprintf "%s edges=[%s]" (print_instance rowss) (print_edges edges))
       QCheck.Gen.(
         let* rowss = gen_instance ~min_k:3 ~max_k:4 ~max_rows:4 in
         let* edges = gen_edges (List.length rowss) in
         return (rowss, edges)))
    (fun (rowss, edges) ->
      let rels = relations_of rowss in
      universes_agree (Universe.build_kary_naive ~edges rels) (Universe.build ~edges rels))

let qcheck_k2_edges_is_default =
  QCheck.Test.make ~name:"k = 2 build ~edges:[(0,1)] = build (byte identity)"
    ~count:100
    (arb_instance ~min_k:2 ~max_k:2 ~max_rows:6)
    (fun rowss ->
      let rels = relations_of rowss in
      let d = Universe.build rels and e = Universe.build ~edges:[ (0, 1) ] rels in
      universes_agree d e
      && Int.equal (Omega.width (Universe.omega d)) (Omega.width (Universe.omega e)))

let qcheck_sampled_kary_deterministic =
  QCheck.Test.make ~name:"build_sampled_kary depends only on the seed"
    ~count:100
    (arb_instance ~min_k:2 ~max_k:3 ~max_rows:4)
    (fun rowss ->
      let rels = relations_of rowss in
      let u1 = Universe.build_sampled (Prng.create 7) ~tuples:20 rels in
      let u2 = Universe.build_sampled (Prng.create 7) ~tuples:20 rels in
      universes_agree u1 u2)

let qcheck_sampled_k2_matches_binary =
  QCheck.Test.make ~name:"k = 2 build_sampled_kary = build_sampled" ~count:100
    (arb_instance ~min_k:2 ~max_k:2 ~max_rows:4)
    (fun rowss ->
      match relations_of rowss with
      | [ r; p ] ->
          (* The binary sampling contract, by hand: draw row i of R then
             row j of P per tuple, group by T(i, j), keep the smallest
             drawn pair per class. *)
          let prng = Prng.create 11 in
          let omega = Universe.omega (Universe.build_naive r p) in
          let tbl = Hashtbl.create 16 in
          for _ = 1 to 15 do
            let i = Prng.int prng (Relation.cardinality r) in
            let j = Prng.int prng (Relation.cardinality p) in
            let s =
              Jqi_core.Tsig.of_tuples omega (Relation.row r i) (Relation.row p j)
            in
            let key = Bits.elements s in
            match Hashtbl.find_opt tbl key with
            | Some (c, rep) -> Hashtbl.replace tbl key (c + 1, min rep (i, j))
            | None -> Hashtbl.replace tbl key (1, (i, j))
          done;
          let u = Universe.build_sampled (Prng.create 11) ~tuples:15 [ r; p ] in
          Int.equal (Hashtbl.length tbl) (Universe.n_classes u)
          && Array.for_all
               (fun (c : Universe.cls) ->
                 match Hashtbl.find_opt tbl (Bits.elements c.Universe.signature) with
                 | Some (count, (i, j)) ->
                     Int.equal count c.Universe.count
                     && Int.equal i c.Universe.rep.(0)
                     && Int.equal j c.Universe.rep.(1)
                 | None -> false)
               (Universe.classes u)
      | _ -> false)

let test_kary_too_large () =
  (* Three relations of distinct rows: the distinct-profile walk must
     trip a tiny limit with the typed error, not a stack blowout. *)
  let mk name pre n =
    relation_of name pre (List.init n (fun i -> Tuple.of_list [ Value.Int i ]))
  in
  let rels = [ mk "r" "a" 5; mk "p" "b" 5; mk "q" "c" 5 ] in
  (match Universe.build ~limit:10 rels with
  | _ -> Alcotest.fail "expected Kary_too_large"
  | exception Universe.Kary_too_large { work; limit } ->
      Alcotest.(check int) "limit echoed" 10 limit;
      Alcotest.(check bool) "work exceeds limit" true (work > limit));
  (* The same product fits a generous limit and matches the oracle. *)
  let u = Universe.build ~limit:1_000_000 rels in
  Alcotest.(check bool) "generous limit agrees with naive" true
    (universes_agree (Universe.build_kary_naive rels) u)

(* The work limit bounds the k >= 3 walk only: the pair kernel ignores
   it, so even a limit of 1 builds every binary universe. *)
let test_limit_ignored_at_k2 () =
  let mk name pre n =
    relation_of name pre (List.init n (fun i -> Tuple.of_list [ Value.Int i ]))
  in
  let r = mk "r" "a" 6 and p = mk "p" "b" 7 in
  match Universe.build ~limit:1 [ r; p ] with
  | u ->
      Alcotest.(check bool) "limit 1 agrees with naive" true
        (universes_agree (Universe.build_naive r p) u)
  | exception Universe.Kary_too_large _ ->
      Alcotest.fail "Kary_too_large raised on two relations"

let test_kary_validation () =
  let r = relation_of "r" "a" [ Tuple.of_list [ Value.Int 1 ] ] in
  Alcotest.(check bool) "fewer than two relations" true
    (match Universe.build [ r ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "sampled: fewer than two relations" true
    (match Universe.build_sampled (Prng.create 1) ~tuples:5 [ r ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "sampled: non-positive sample" true
    (match Universe.build_sampled (Prng.create 1) ~tuples:0 [ r; r ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "NULL/NaN never join" `Quick test_join_null_semantics;
    Alcotest.test_case "unconstrained join is the product" `Quick
      test_join_cross_product;
    Alcotest.test_case "unary of no sets raises" `Quick test_unary_empty_input;
    Alcotest.test_case "Kary_too_large trips on a tiny limit" `Quick
      test_kary_too_large;
    Alcotest.test_case "k-ary builder validation" `Quick test_kary_validation;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_triejoin_matches_oracles;
        qcheck_unary_is_set_intersection;
        qcheck_kary_quotient_equals_naive;
        qcheck_k2_is_binary_build;
        qcheck_sampled_kary_deterministic;
        qcheck_sampled_k2_matches_binary;
      ]
  @ [
      Alcotest.test_case "build ~limit:1 never trips at k = 2" `Quick
        test_limit_ignored_at_k2;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_edges_equals_naive; qcheck_k2_edges_is_default ]
