(* Bitsets: unit cases plus qcheck properties against a reference Set. *)

module Bits = Jqi_util.Bits
module IS = Set.Make (Int)

let bits = Fixtures.bits_testable

let test_empty_full () =
  let e = Bits.empty 10 and f = Bits.full 10 in
  Alcotest.(check bool) "empty is empty" true (Bits.is_empty e);
  Alcotest.(check int) "empty cardinal" 0 (Bits.cardinal e);
  Alcotest.(check int) "full cardinal" 10 (Bits.cardinal f);
  Alcotest.(check bool) "empty subset full" true (Bits.subset e f);
  Alcotest.(check bool) "full not subset empty" false (Bits.subset f e);
  Alcotest.check bits "complement of empty" f (Bits.complement e);
  Alcotest.check bits "complement of full" e (Bits.complement f)

let test_multiword () =
  (* Widths beyond one word exercise the word-array paths. *)
  let w = 150 in
  let s = Bits.of_list w [ 0; 62; 63; 64; 126; 127; 149 ] in
  Alcotest.(check int) "cardinal" 7 (Bits.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 62; 63; 64; 126; 127; 149 ]
    (Bits.elements s);
  Alcotest.(check bool) "mem 64" true (Bits.mem s 64);
  Alcotest.(check bool) "mem 65" false (Bits.mem s 65);
  Alcotest.(check int) "full 150" 150 (Bits.cardinal (Bits.full w));
  Alcotest.check bits "complement twice" s (Bits.complement (Bits.complement s))

let test_add_remove () =
  let s = Bits.empty 5 in
  let s1 = Bits.add s 3 in
  Alcotest.(check bool) "added" true (Bits.mem s1 3);
  Alcotest.(check bool) "original untouched" false (Bits.mem s 3);
  Alcotest.check bits "remove undoes add" s (Bits.remove s1 3);
  Alcotest.check bits "add idempotent" s1 (Bits.add s1 3)

let test_bounds () =
  let s = Bits.empty 5 in
  Alcotest.check_raises "mem out of range"
    (Invalid_argument "Bits: index 5 out of width 5") (fun () ->
      ignore (Bits.mem s 5));
  Alcotest.check_raises "negative" (Invalid_argument "Bits: index -1 out of width 5")
    (fun () -> ignore (Bits.add s (-1)));
  Alcotest.check_raises "width mismatch" (Invalid_argument "Bits: width mismatch")
    (fun () -> ignore (Bits.union s (Bits.empty 6)))

let test_build () =
  let b = Bits.build 70 (fun set -> set 0; set 63; set 69; set 0) in
  Alcotest.check bits "equals of_list" (Bits.of_list 70 [ 0; 63; 69 ]) b;
  Alcotest.(check bool) "setter bounds" true
    (try ignore (Bits.build 5 (fun set -> set 5)); false
     with Invalid_argument _ -> true)

let test_of_words () =
  (* Bit i lives in word i / bits_per_word; of_words inverts that layout
     and rejects a wrong word count or a bit past the width. *)
  let w = Bits.bits_per_word + 7 in
  Alcotest.(check int) "two words" 2 (Bits.word_count w);
  Alcotest.(check int) "at least one word" 1 (Bits.word_count 0);
  let b = Bits.of_words w [| 1 lor (1 lsl 5); 1 lsl 6 |] in
  Alcotest.check bits "equals of_list"
    (Bits.of_list w [ 0; 5; Bits.bits_per_word + 6 ])
    b;
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "word count" true (raises (fun () -> Bits.of_words w [| 0 |]));
  Alcotest.(check bool) "bit past width" true
    (raises (fun () -> Bits.of_words w [| 0; 1 lsl 7 |]))

let test_subsets_count () =
  let s = Bits.of_list 8 [ 1; 3; 5 ] in
  let subs = Bits.subsets s in
  Alcotest.(check int) "2^3 subsets" 8 (List.length subs);
  List.iter
    (fun sub -> Alcotest.(check bool) "each is subset" true (Bits.subset sub s))
    subs;
  (* All distinct. *)
  let distinct =
    List.fold_left
      (fun acc x -> if List.exists (Bits.equal x) acc then acc else x :: acc)
      [] subs
  in
  Alcotest.(check int) "distinct" 8 (List.length distinct)

(* qcheck: random subsets of width <= 130 mirrored in an int Set. *)
let gen_ops =
  QCheck.Gen.(
    let* width = int_range 1 130 in
    let* elems = list_size (int_bound 40) (int_bound (width - 1)) in
    let* elems2 = list_size (int_bound 40) (int_bound (width - 1)) in
    return (width, elems, elems2))

let arb_ops = QCheck.make gen_ops

let mirror width l = (Bits.of_list width l, IS.of_list l)

let prop_mirror name f g =
  QCheck.Test.make ~name ~count:300 arb_ops (fun (w, l1, l2) ->
      let b1, s1 = mirror w l1 and b2, s2 = mirror w l2 in
      f b1 b2 = g s1 s2)

let qcheck_tests =
  [
    prop_mirror "union mirrors set union"
      (fun a b -> Bits.elements (Bits.union a b))
      (fun a b -> IS.elements (IS.union a b));
    prop_mirror "inter mirrors set inter"
      (fun a b -> Bits.elements (Bits.inter a b))
      (fun a b -> IS.elements (IS.inter a b));
    prop_mirror "diff mirrors set diff"
      (fun a b -> Bits.elements (Bits.diff a b))
      (fun a b -> IS.elements (IS.diff a b));
    prop_mirror "subset mirrors" Bits.subset IS.subset;
    prop_mirror "disjoint mirrors" Bits.disjoint IS.disjoint;
    prop_mirror "equal mirrors" Bits.equal IS.equal;
    QCheck.Test.make ~name:"cardinal mirrors" ~count:300 arb_ops
      (fun (w, l, _) ->
        let b, s = mirror w l in
        Bits.cardinal b = IS.cardinal s);
    QCheck.Test.make ~name:"equal implies same hash" ~count:300 arb_ops
      (fun (w, l, _) ->
        let b1 = Bits.of_list w l and b2 = Bits.of_list w (List.rev l) in
        Bits.equal b1 b2 && Bits.hash b1 = Bits.hash b2);
    QCheck.Test.make ~name:"compare is a total order consistent with equal"
      ~count:300 arb_ops
      (fun (w, l1, l2) ->
        let b1 = Bits.of_list w l1 and b2 = Bits.of_list w l2 in
        let c12 = Bits.compare b1 b2 and c21 = Bits.compare b2 b1 in
        if Bits.equal b1 b2 then c12 = 0 && c21 = 0
        else c12 <> 0 && c12 = -c21);
    QCheck.Test.make ~name:"fold visits each element once" ~count:300 arb_ops
      (fun (w, l, _) ->
        let b, s = mirror w l in
        Bits.fold (fun i acc -> acc + i) b 0 = IS.fold ( + ) s 0);
  ]

let suite =
  [
    Alcotest.test_case "empty and full" `Quick test_empty_full;
    Alcotest.test_case "multi-word widths" `Quick test_multiword;
    Alcotest.test_case "add/remove persistence" `Quick test_add_remove;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "build" `Quick test_build;
    Alcotest.test_case "of_words" `Quick test_of_words;
    Alcotest.test_case "subsets enumeration" `Quick test_subsets_count;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
