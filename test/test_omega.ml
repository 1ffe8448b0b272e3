(* Ω indexing: the bijection between bit positions and attribute pairs. *)

module Omega = Jqi_core.Omega
module Bits = Jqi_util.Bits

let omega = Omega.create ~n:3 ~m:4 ()

let test_width () =
  Alcotest.(check int) "width" 12 (Omega.width omega);
  Alcotest.(check int) "left" 3 (Omega.left_arity omega);
  Alcotest.(check int) "right" 4 (Omega.right_arity omega)

let test_bijection () =
  for k = 0 to Omega.width omega - 1 do
    let i, j = Omega.pair omega k in
    Alcotest.(check int) "roundtrip" k (Omega.index omega i j)
  done;
  (* All (i,j) map to distinct indices. *)
  let seen = Hashtbl.create 12 in
  for i = 0 to 2 do
    for j = 0 to 3 do
      let k = Omega.index omega i j in
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen k);
      Hashtbl.add seen k ()
    done
  done

let test_bounds () =
  Alcotest.(check bool) "index out of range raises" true
    (try ignore (Omega.index omega 3 0); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "pair out of range raises" true
    (try ignore (Omega.pair omega 12); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero arity rejected" true
    (try ignore (Omega.create ~n:0 ~m:1 ()); false with Invalid_argument _ -> true)

let test_pairs_roundtrip () =
  let pred = Omega.of_pairs omega [ (0, 3); (2, 1) ] in
  Alcotest.(check (list (pair int int))) "to_pairs" [ (0, 3); (2, 1) ]
    (Omega.to_pairs omega pred);
  Alcotest.(check int) "cardinal" 2 (Bits.cardinal pred)

let test_names () =
  let o =
    Omega.create ~r_names:[| "x"; "y" |] ~p_names:[| "u" |] ~n:2 ~m:1 ()
  in
  Alcotest.(check string) "r_name" "y" (Omega.r_name o 1);
  Alcotest.(check string) "p_name" "u" (Omega.p_name o 0);
  let pred = Omega.of_names o [ ("y", "u") ] in
  Alcotest.(check (list (pair int int))) "resolved" [ (1, 0) ] (Omega.to_pairs o pred);
  Alcotest.(check string) "pp" "{(y,u)}" (Omega.pred_to_string o pred);
  Alcotest.(check string) "pp empty" "{}" (Omega.pred_to_string o (Omega.empty o));
  Alcotest.(check bool) "unknown name raises" true
    (try ignore (Omega.of_names o [ ("z", "u") ]); false
     with Invalid_argument _ -> true)

let test_default_names () =
  (* Default names follow the paper: A1..An and B1..Bm, 1-based. *)
  Alcotest.(check string) "A1" "A1" (Omega.r_name omega 0);
  Alcotest.(check string) "B4" "B4" (Omega.p_name omega 3)

let test_all_predicates_count () =
  let o = Omega.create ~n:1 ~m:3 () in
  Alcotest.(check int) "2^3" 8 (List.length (Omega.all_predicates o))

(* K-ary Ω under an edge set: relations of arities 2, 1, 3, 2. *)
let knames =
  [|
    [| "a0"; "a1" |]; [| "b0" |]; [| "c0"; "c1"; "c2" |]; [| "d0"; "d1" |];
  |]

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_edge_width () =
  let arity i = Array.length knames.(i) in
  List.iter
    (fun edges ->
      let o = Omega.create_kary ~edges knames in
      let expected = List.fold_left (fun s (i, j) -> s + (arity i * arity j)) 0 edges in
      Alcotest.(check int) "width = Σ over edges of n_i·n_j" expected (Omega.width o);
      Alcotest.(check (list (pair int int)))
        "one block per edge, lexicographic"
        (List.sort (fun (i, j) (i', j') -> if Int.equal i i' then Int.compare j j' else Int.compare i i') edges)
        (Array.to_list (Array.map (fun (i, j, _) -> (i, j)) (Omega.blocks o))))
    [ [ (0, 1); (1, 2); (2, 3) ]; [ (1, 3) ]; [ (2, 3); (0, 2); (0, 1) ]; [ (0, 3); (1, 2) ] ];
  (* Listing every pair is the default layout. *)
  let all = [ (2, 3); (1, 3); (1, 2); (0, 3); (0, 2); (0, 1) ] in
  Alcotest.(check bool) "all pairs = default" true
    (Array.for_all2
       (fun (i, j, o) (i', j', o') -> Int.equal i i' && Int.equal j j' && Int.equal o o')
       (Omega.blocks (Omega.create_kary ~edges:all knames))
       (Omega.blocks (Omega.create_kary knames)))

let test_edge_bijection () =
  let o = Omega.create_kary ~edges:[ (2, 3); (0, 1); (1, 2) ] knames in
  for bit = 0 to Omega.width o - 1 do
    let p, q = Omega.kpair o bit in
    Alcotest.(check int) "kindex (kpair bit)" bit (Omega.kindex o p q)
  done;
  Array.iter
    (fun (i, j, base) ->
      Alcotest.(check int) "block offset" base (Omega.block_offset o i j);
      Alcotest.(check bool) "kpair lands in the block" true
        (let (i', _), (j', _) = Omega.kpair o base in
         Int.equal i i' && Int.equal j j'))
    (Omega.blocks o)

let test_edge_absent_block () =
  let o = Omega.create_kary ~rel_names:[| "a"; "b"; "c"; "d" |] ~edges:[ (0, 1); (1, 2) ] knames in
  Alcotest.(check bool) "kindex on an absent block raises" true
    (raises (fun () -> Omega.kindex o (0, 0) (2, 0)));
  Alcotest.(check bool) "block_offset on an absent block raises" true
    (raises (fun () -> Omega.block_offset o 2 3));
  Alcotest.(check bool) "of_names_kary on an absent block raises" true
    (raises (fun () -> Omega.of_names_kary o [ ("a.a0", "c.c1") ]));
  Alcotest.(check int) "present block still resolves" 1
    (Bits.cardinal (Omega.of_names_kary o [ ("b.b0", "c.c1") ]))

let test_edge_validation () =
  List.iter
    (fun (label, edges) ->
      Alcotest.(check bool) label true (raises (fun () -> Omega.create_kary ~edges knames)))
    [
      ("empty edge set", []);
      ("duplicate edge", [ (0, 1); (1, 2); (0, 1) ]);
      ("i = j", [ (1, 1) ]);
      ("i > j", [ (2, 1) ]);
      ("negative relation", [ (-1, 1) ]);
      ("relation past k", [ (2, 4) ]);
    ]

(* Two relations sharing a name cannot be told apart by "rel.attr". *)
let test_ambiguous_relation () =
  let o =
    Omega.create_kary ~rel_names:[| "a"; "a"; "c" |] [| [| "x" |]; [| "x" |]; [| "y" |] |]
  in
  Alcotest.check_raises "same-named relations are ambiguous"
    (Invalid_argument
       "Omega.of_names_kary: ambiguous relation \"a\" in \"a.x\" (qualify uniquely)")
    (fun () -> ignore (Omega.of_names_kary o [ ("a.x", "c.y") ]));
  Alcotest.(check int) "unique qualifiers still resolve" 1
    (Bits.cardinal
       (Omega.of_names_kary
          (Omega.create_kary ~rel_names:[| "a"; "b"; "c" |]
             [| [| "x" |]; [| "x" |]; [| "y" |] |])
          [ ("a.x", "c.y") ]))

let suite =
  [
    Alcotest.test_case "width/arities" `Quick test_width;
    Alcotest.test_case "index bijection" `Quick test_bijection;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "pairs roundtrip" `Quick test_pairs_roundtrip;
    Alcotest.test_case "named attributes" `Quick test_names;
    Alcotest.test_case "default names" `Quick test_default_names;
    Alcotest.test_case "all_predicates count" `Quick test_all_predicates_count;
    Alcotest.test_case "edge set width" `Quick test_edge_width;
    Alcotest.test_case "edge set bijection" `Quick test_edge_bijection;
    Alcotest.test_case "absent block raises" `Quick test_edge_absent_block;
    Alcotest.test_case "edge set validation" `Quick test_edge_validation;
    Alcotest.test_case "ambiguous relation raises" `Quick test_ambiguous_relation;
  ]
