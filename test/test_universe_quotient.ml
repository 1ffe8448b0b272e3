(* Differential suite for the profile-quotient universe construction:
   [Universe.build] must reproduce the reference per-pair scan
   [Universe.build_naive] exactly — classes, counts, representatives and
   join ratio — on random instances including NULL-heavy,
   duplicate-heavy, NaN-bearing, single-row and all-NULL-column ones, and
   on instances aimed at the inverted kernel's edge cases (wide Ω, the
   empty-signature class's representative, no empty class, no match at
   all).  Plus unit coverage of the value dictionary ([Dict]): NULL and NaN
   are never coded, types never share codes, and IEEE zero equality is
   honoured. *)

module Bits = Jqi_util.Bits
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Dict = Jqi_relational.Dict
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module Tsig = Jqi_core.Tsig

(* Full structural agreement of two universes; returns false (rather than
   raising) so it can sit inside qcheck properties. *)
let universes_agree u1 u2 =
  Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
  && Int.equal (Universe.total_tuples u1) (Universe.total_tuples u2)
  && Float.equal (Universe.join_ratio u1) (Universe.join_ratio u2)
  &&
  let rec go i =
    i >= Universe.n_classes u1
    || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
       && Int.equal (Universe.count u1 i) (Universe.count u2 i)
       && (let rep1 = (Universe.cls u1 i).Universe.rep
           and rep2 = (Universe.cls u2 i).Universe.rep in
           Int.equal rep1.(0) rep2.(0) && Int.equal rep1.(1) rep2.(1))
       && go (i + 1)
  in
  go 0

let check_agree label u1 u2 =
  Alcotest.(check bool) label true (universes_agree u1 u2)

let relation_of name prefix rows =
  let arity = Tuple.arity (List.hd rows) in
  Relation.of_list ~name
    ~schema:
      (Schema.of_names ~ty:Value.TInt
         (List.init arity (fun i -> Printf.sprintf "%s%d" prefix i)))
    rows

let builders r p = (Universe.build_naive r p, Universe.build r p)

(* ------------------------- deterministic edges -------------------- *)

let test_single_row () =
  let r = relation_of "r" "a" [ Tuple.ints [ 7; 7 ] ] in
  let p = relation_of "p" "b" [ Tuple.ints [ 7 ] ] in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  Alcotest.(check int) "one class" 1 (Universe.n_classes q)

let test_all_null_column () =
  (* A column of NULLs matches nothing: it must not contribute bits, and
     rows differing only in other columns' NULLs still group correctly. *)
  let null_row v = Tuple.of_list [ Value.Null; Value.Int v ] in
  let r = relation_of "r" "a" [ null_row 1; null_row 1; null_row 2 ] in
  let p =
    relation_of "p" "b"
      [ Tuple.of_list [ Value.Int 1 ]; Tuple.of_list [ Value.Null ] ]
  in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  Alcotest.(check int) "|D| preserved" 6 (Universe.total_tuples q)

let test_duplicate_heavy () =
  (* Three distinct rows repeated many times: the quotient sees 3 × 2
     profile pairs for a 36-pair product, and multiplicities must land on
     the same classes the scan finds. *)
  let reps = List.concat_map (fun v -> [ v; v; v; v ]) [ [ 1; 2 ]; [ 2; 1 ]; [ 1; 1 ] ] in
  let r = relation_of "r" "a" (List.map Tuple.ints reps) in
  let p = relation_of "p" "b" (List.map Tuple.ints [ [ 1 ]; [ 1 ]; [ 2 ] ]) in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  Alcotest.(check int) "|D| = 36" 36 (Universe.total_tuples q)

let test_nan_never_matches () =
  (* NaN behaves like NULL under Value.eq; the dictionary must not give it
     a code (an interned NaN could never be found again, leaking fresh
     codes), and the quotient must agree with the scan. *)
  let fr v = Tuple.of_list [ Value.Float v ] in
  let r = relation_of "r" "a" [ fr Float.nan; fr 1.0; fr Float.nan ] in
  let p = relation_of "p" "b" [ fr Float.nan; fr 1.0 ] in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  (* Exactly one matching pair: 1.0 with 1.0. *)
  let matching = Omega.of_pairs (Universe.omega q) [ (0, 0) ] in
  match Universe.find_class q matching with
  | None -> Alcotest.fail "expected the 1.0 = 1.0 class"
  | Some i -> Alcotest.(check int) "one matching pair" 1 (Universe.count q i)

let test_mixed_zero () =
  (* IEEE: 0.0 = -0.0, so they must share a dictionary code and join. *)
  let fr v = Tuple.of_list [ Value.Float v ] in
  let r = relation_of "r" "a" [ fr 0.0 ] in
  let p = relation_of "p" "b" [ fr (-0.0) ] in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  Alcotest.(check int) "0.0 joins -0.0" 1
    (List.length
       (Universe.selected_classes q (Omega.of_pairs (Universe.omega q) [ (0, 0) ])))

(* ------------------------- qcheck differential -------------------- *)

(* Mixed-type cells over small pools so duplicates, NULLs, NaNs and
   cross-type near-collisions (Int 1 vs Float 1. vs Str "1") all occur. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Value.Int i) (int_bound 3));
        (2, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (1, map (fun i -> Value.Float (float_of_int i)) (int_bound 2));
        (1, return (Value.Float Float.nan));
        (1, map (fun i -> Value.Str (String.make 1 (Char.chr (49 + i)))) (int_bound 2));
      ])

let gen_instance =
  QCheck.Gen.(
    let row arity = map Tuple.of_list (list_repeat arity gen_cell) in
    let* ra = int_range 1 3 and* pa = int_range 1 3 in
    (* Draw rows from a small pool so profiles repeat (the duplicate-heavy
       regime the quotient exploits), but keep fully random instances in
       the mix too. *)
    let rows_of arity =
      let* dup = bool in
      if dup then
        let* pool = list_size (int_range 1 3) (row arity) in
        list_size (int_range 1 12) (oneofl pool)
      else list_size (int_range 1 10) (row arity)
    in
    let* rrows = rows_of ra and* prows = rows_of pa in
    return (rrows, prows))

let qcheck_quotient_equals_naive =
  QCheck.Test.make ~name:"build_quotient = build_naive" ~count:400
    (QCheck.make gen_instance) (fun (rrows, prows) ->
      let r = relation_of "r" "a" rrows and p = relation_of "p" "b" prows in
      let n, q = builders r p in
      universes_agree n q)

let qcheck_signatures_match_reps =
  QCheck.Test.make ~name:"quotient class signatures = T(representative)"
    ~count:200 (QCheck.make gen_instance)
    (fun (rrows, prows) ->
      let r = relation_of "r" "a" rrows and p = relation_of "p" "b" prows in
      let u = Universe.build_quotient r p in
      let omega = Universe.omega u in
      let rec go i =
        i >= Universe.n_classes u
        ||
        let rep = (Universe.cls u i).Universe.rep in
        let ri = rep.(0) and pj = rep.(1) in
        Bits.equal (Universe.signature u i)
          (Tsig.of_tuples omega (Relation.row r ri) (Relation.row p pj))
        && go (i + 1)
      in
      go 0)

(* ------------------------- kernel edge cases ---------------------- *)

(* Instances aimed at the inverted kernel: arities up to 12 × 12 (Ω wider
   than two words), duplicate rows, NULL/NaN cells (never posted), and
   one of four shapes —
   - [`Mixed]: small shared value pools;
   - [`First_touch]: R's first row is all 1s and P's first rows hold a 1,
     so the first R-profile touches the first P-profiles and the
     empty class's representative is not (0, 0);
   - [`All_match]: column 0 is the same value everywhere, so every pair
     matches and there is no empty class;
   - [`Disjoint]: R and P draw from disjoint values, so no pair matches. *)
let gen_kernel_instance =
  QCheck.Gen.(
    let* shape = oneofl [ `Mixed; `First_touch; `All_match; `Disjoint ] in
    let* ra = frequency [ (1, int_range 1 4); (2, int_range 9 12) ]
    and* pa = frequency [ (1, int_range 1 4); (2, int_range 9 12) ] in
    let cell offset =
      frequency
        [
          (6, map (fun i -> Value.Int (offset + i)) (int_bound 3));
          (1, return Value.Null);
          (1, return (Value.Float Float.nan));
        ]
    in
    let p_offset = match shape with `Disjoint -> 10 | _ -> 0 in
    let row arity offset =
      let* cells = list_repeat arity (cell offset) in
      match shape with
      | `All_match -> return (Tuple.of_list (Value.Int 7 :: List.tl cells))
      | `Mixed | `First_touch | `Disjoint -> return (Tuple.of_list cells)
    in
    let rows arity offset =
      let* dup = bool in
      if dup then
        let* pool = list_size (int_range 1 3) (row arity offset) in
        list_size (int_range 1 8) (oneofl pool)
      else list_size (int_range 1 8) (row arity offset)
    in
    let* rrows = rows ra 0 and* prows = rows pa p_offset in
    match shape with
    | `First_touch ->
        let ones = Tuple.ints (List.init ra (fun _ -> 1)) in
        let with_one =
          Tuple.of_list (Value.Int 1 :: List.init (pa - 1) (fun _ -> Value.Null))
        in
        return (ones :: rrows, with_one :: with_one :: prows)
    | `Mixed | `All_match | `Disjoint -> return (rrows, prows))

let qcheck_kernel_edges =
  QCheck.Test.make ~name:"kernel edge cases: build = build_naive" ~count:300
    (QCheck.make gen_kernel_instance) (fun (rrows, prows) ->
      let r = relation_of "r" "a" rrows and p = relation_of "p" "b" prows in
      let n, q = builders r p in
      universes_agree n q)

let test_empty_class_rep () =
  (* (0, 0) matches, so the empty class's smallest member is (0, 1): the
     first R-profile with an untouched partner, paired with its smallest
     untouched P-profile. *)
  let r = relation_of "r" "a" (List.map Tuple.ints [ [ 1 ]; [ 2 ] ]) in
  let p = relation_of "p" "b" (List.map Tuple.ints [ [ 1 ]; [ 3 ] ]) in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  match Universe.find_class q (Omega.empty (Universe.omega q)) with
  | None -> Alcotest.fail "expected an empty-signature class"
  | Some i ->
      Alcotest.(check (array int)) "empty rep" [| 0; 1 |] (Universe.cls q i).Universe.rep;
      Alcotest.(check int) "empty count" 3 (Universe.count q i)

let test_high_bit_classes () =
  (* 12 × 12 attributes give a 144-bit Ω over three words.  Each P row
     matches R's single row on one attribute pair whose bit sits at
     position >= 9 of its word, so the classes agree on the low bits of
     every word and differ only above them. *)
  let n_attr = 12 in
  let r = relation_of "r" "a" [ Tuple.ints (List.init n_attr (fun x -> 100 + x)) ] in
  let bits =
    List.filter
      (fun bit -> bit mod Bits.bits_per_word >= 9)
      (List.init (n_attr * n_attr) Fun.id)
  in
  let prow bit =
    let x = bit / n_attr and y = bit mod n_attr in
    Tuple.of_list
      (List.init n_attr (fun j -> if Int.equal j y then Value.Int (100 + x) else Value.Null))
  in
  let p = relation_of "p" "b" (List.map prow bits) in
  let n, q = builders r p in
  check_agree "quotient = naive" n q;
  Alcotest.(check int) "one class per bit" (List.length bits) (Universe.n_classes q);
  Alcotest.(check bool) "no empty class" true
    (Option.is_none (Universe.find_class q (Omega.empty (Universe.omega q))))

(* ------------------------- sampled determinism -------------------- *)

let test_sampled_reps_deterministic () =
  (* ISSUE 4 satellite: [build_sampled] must pick the lexicographically
     smallest representative among the sampled members of a class, so a
     sample that (with overwhelming probability) covers the whole 3×3
     product reproduces [build] exactly — for every seed, i.e. regardless
     of PRNG draw order.  The old keep-first-drawn rule made reps depend
     on the seed and fail this.  Counts are sample frequencies (not true
     multiplicities), so only classes and representatives are compared. *)
  let r = relation_of "r" "a" (List.map Tuple.ints [ [ 1 ]; [ 1 ]; [ 2 ] ]) in
  let p = relation_of "p" "b" (List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 1 ] ]) in
  let reference = Universe.build r p in
  List.iter
    (fun seed ->
      let sampled =
        Universe.build_sampled (Jqi_util.Prng.create seed) ~pairs:3000 r p
      in
      let label fmt =
        Printf.ksprintf (fun s -> Printf.sprintf "seed %d: %s" seed s) fmt
      in
      Alcotest.(check int)
        (label "classes")
        (Universe.n_classes reference)
        (Universe.n_classes sampled);
      for i = 0 to Universe.n_classes reference - 1 do
        Alcotest.(check bool)
          (label "signature %d" i)
          true
          (Bits.equal (Universe.signature reference i)
             (Universe.signature sampled i));
        Alcotest.(check (array int))
          (label "rep %d" i)
          (Universe.cls reference i).Universe.rep
          (Universe.cls sampled i).Universe.rep
      done)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------- dict unit suite ------------------------ *)

let test_dict_null_nan_uncoded () =
  let d = Dict.create () in
  Alcotest.(check int) "NULL uncoded" Dict.no_code (Dict.code d Value.Null);
  Alcotest.(check int) "NaN uncoded" Dict.no_code
    (Dict.code d (Value.Float Float.nan));
  Alcotest.(check int) "nothing interned" 0 (Dict.size d);
  Alcotest.(check bool) "NULL not codable" false (Dict.codable Value.Null);
  Alcotest.(check bool) "NaN not codable" false
    (Dict.codable (Value.Float Float.nan))

let test_dict_codes_follow_eq () =
  let d = Dict.create () in
  let c1 = Dict.code d (Value.Int 1) in
  Alcotest.(check int) "stable code" c1 (Dict.code d (Value.Int 1));
  (* Cross-type: Int 1, Float 1., Str "1", Bool true never share codes,
     exactly as Value.eq never crosses types. *)
  let codes =
    List.map (Dict.code d)
      [ Value.Int 1; Value.Float 1.0; Value.Str "1"; Value.Bool true ]
  in
  let distinct = List.sort_uniq Int.compare codes in
  Alcotest.(check int) "four distinct codes" 4 (List.length distinct);
  Alcotest.(check int) "four values interned" 4 (Dict.size d);
  (* IEEE zero: 0.0 and -0.0 are join-equal, one code. *)
  Alcotest.(check int) "0.0 = -0.0"
    (Dict.code d (Value.Float 0.0))
    (Dict.code d (Value.Float (-0.0)))

let test_dict_find_read_only () =
  let d = Dict.create () in
  Alcotest.(check int) "find before intern" Dict.no_code
    (Dict.find d (Value.Str "x"));
  Alcotest.(check int) "find did not intern" 0 (Dict.size d);
  let c = Dict.code d (Value.Str "x") in
  Alcotest.(check int) "find after intern" c (Dict.find d (Value.Str "x"))

let test_dict_encoding () =
  let d = Dict.create () in
  let rel =
    relation_of "r" "a"
      [
        Tuple.of_list [ Value.Int 1; Value.Null ];
        Tuple.of_list [ Value.Int 2; Value.Int 1 ];
      ]
  in
  let rows = Dict.encode_rows d rel in
  Alcotest.(check int) "row-major shape" 2 (Array.length rows);
  Alcotest.(check int) "null slot" Dict.no_code rows.(0).(1);
  Alcotest.(check int) "shared code space" rows.(0).(0) rows.(1).(1);
  let col0 = Dict.encode_column d rel 0 in
  Alcotest.(check (array int)) "column agrees with rows"
    [| rows.(0).(0); rows.(1).(0) |]
    col0;
  Alcotest.(check bool) "bad column raises" true
    (try ignore (Dict.encode_column d rel 9); false
     with Invalid_argument _ -> true)

let test_of_codes_matches_of_tuples () =
  let d = Dict.create () in
  let tr = Tuple.of_list [ Value.Int 1; Value.Null; Value.Str "x" ] in
  let tp = Tuple.of_list [ Value.Str "x"; Value.Int 1 ] in
  let omega = Omega.create ~n:3 ~m:2 () in
  let cr = Dict.encode_row d tr and cp = Dict.encode_row d tp in
  Alcotest.(check bool) "of_codes = of_tuples" true
    (Bits.equal (Tsig.of_tuples omega tr tp) (Tsig.of_codes omega cr cp));
  Alcotest.(check bool) "arity mismatch raises" true
    (try ignore (Tsig.of_codes omega cr [| 0 |]); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "single row" `Quick test_single_row;
    Alcotest.test_case "all-NULL column" `Quick test_all_null_column;
    Alcotest.test_case "duplicate-heavy" `Quick test_duplicate_heavy;
    Alcotest.test_case "NaN never matches" `Quick test_nan_never_matches;
    Alcotest.test_case "IEEE zeros join" `Quick test_mixed_zero;
    Alcotest.test_case "empty-class representative" `Quick test_empty_class_rep;
    Alcotest.test_case "classes differ only in high bits" `Quick
      test_high_bit_classes;
    Alcotest.test_case "sampled reps are draw-order independent" `Quick
      test_sampled_reps_deterministic;
    Alcotest.test_case "dict: NULL/NaN uncoded" `Quick test_dict_null_nan_uncoded;
    Alcotest.test_case "dict: codes follow Value.eq" `Quick
      test_dict_codes_follow_eq;
    Alcotest.test_case "dict: find is read-only" `Quick test_dict_find_read_only;
    Alcotest.test_case "dict: row/column encoding" `Quick test_dict_encoding;
    Alcotest.test_case "tsig: of_codes = of_tuples" `Quick
      test_of_codes_matches_of_tuples;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_quotient_equals_naive;
        qcheck_kernel_edges;
        qcheck_signatures_match_reps;
      ]
