(* Churn pipeline tests: the Delta abstraction through every layer.

   The centerpiece is the differential oracle for incremental universe
   maintenance: [Universe.apply_delta] must be byte-identical — classes,
   counts and representatives — to a from-scratch [build]
   over the post-delta relations, on random interleaved insert/delete
   edit scripts, on both Mem and Paged backends.  Around it sit unit
   tests for the delta plumbing (resolution, Mem/Paged application,
   dictionary interning, incremental fingerprints) and the storage
   primitives that make deletion real (heap tombstones + frontier
   reclamation, rid validation, relstore churn + reopen). *)

module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Delta = Jqi_relational.Delta
module Dict = Jqi_relational.Dict
module Universe = Jqi_core.Universe
module Heap = Jqi_storage.Heap
module Relstore = Jqi_storage.Relstore
module Buffer_pool = Jqi_storage.Buffer_pool

let tmp_path suffix =
  let path = Filename.temp_file "jqi-churn" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let ints_of tup =
  List.map
    (function
      | Value.Int i -> i
      | Value.Null | Value.Bool _ | Value.Float _ | Value.Str _ ->
          invalid_arg "ints_of: non-int cell")
    (Tuple.to_list tup)

let relation_of name prefix rows =
  let arity = Tuple.arity (List.hd rows) in
  Relation.of_list ~name
    ~schema:
      (Schema.of_names ~ty:Value.TInt
         (List.init arity (fun i -> Printf.sprintf "%s%d" prefix i)))
    rows

let universes_agree = Fixtures.universes_agree

let check_agree label u1 u2 =
  Alcotest.(check bool) label true (universes_agree u1 u2)

(* Reference delta semantics on a row list: each remove drops the
   earliest remaining [Tuple.equal] occurrence; adds append. *)
let apply_ref rows (d : Delta.t) =
  let rows =
    Array.fold_left
      (fun rows tup ->
        let rec drop = function
          | [] -> invalid_arg "apply_ref: unmatched remove"
          | r :: rest ->
              if Tuple.equal r tup then rest else r :: drop rest
        in
        drop rows)
      rows d.Delta.removes
  in
  rows @ Array.to_list d.Delta.adds

(* ------------------------- delta plumbing ------------------------- *)

let test_delta_basics () =
  Alcotest.(check bool) "empty" true (Delta.is_empty Delta.empty);
  let d = Delta.of_lists ~adds:[ Tuple.ints [ 1 ] ] ~removes:[] in
  Alcotest.(check bool) "not empty" false (Delta.is_empty d);
  Alcotest.(check bool) "inserts only" true (Delta.inserts_only d);
  Alcotest.(check int) "shift" 1 (Delta.cardinality_shift d);
  Delta.check_arity 1 d;
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Delta: insert row arity 1, relation arity 2")
    (fun () -> Delta.check_arity 2 d)

let test_resolve_removes () =
  let rows = [ [ 1; 1 ]; [ 2; 2 ]; [ 1; 1 ]; [ 3; 3 ]; [ 1; 1 ] ] in
  let r = relation_of "r" "a" (List.map Tuple.ints rows) in
  (* two removes of the duplicate row claim its two earliest occurrences *)
  let d =
    Delta.of_lists ~adds:[]
      ~removes:[ Tuple.ints [ 1; 1 ]; Tuple.ints [ 1; 1 ] ]
  in
  Alcotest.(check (array int)) "earliest occurrences" [| 0; 2 |]
    (Relation.resolve_removes r d);
  let bad = Delta.of_lists ~adds:[] ~removes:[ Tuple.ints [ 9; 9 ] ] in
  Alcotest.(check bool) "unmatched raises" true
    (match Relation.resolve_removes r bad with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_apply_delta_mem () =
  let rows = List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 3 ]; [ 2 ] ] in
  let r = relation_of "r" "a" rows in
  let d =
    Delta.of_lists
      ~adds:[ Tuple.ints [ 7 ]; Tuple.ints [ 8 ] ]
      ~removes:[ Tuple.ints [ 2 ] ]
  in
  let r' = Relation.apply_delta r d in
  Alcotest.(check (list (list int)))
    "survivors in order, adds appended"
    [ [ 1 ]; [ 3 ]; [ 2 ]; [ 7 ]; [ 8 ] ]
    (List.map ints_of (Relation.to_list r'));
  (* the input relation is untouched (Mem is persistent) *)
  Alcotest.(check int) "input untouched" 4 (Relation.cardinality r)

let test_intern_delta () =
  let dict = Dict.create () in
  let c1 = Dict.code dict (Value.Int 1) in
  let d =
    Delta.of_lists
      ~adds:[ Tuple.ints [ 1; 5 ] ]
      ~removes:[ Tuple.ints [ 1; 1 ] ]
  in
  let vecs = Dict.intern_delta dict d in
  Alcotest.(check int) "one add vector" 1 (Array.length vecs);
  Alcotest.(check int) "old value keeps its code" c1 vecs.(0).(0);
  Alcotest.(check bool) "new value mints a fresh code" true
    (vecs.(0).(1) <> c1 && vecs.(0).(1) >= 0);
  (* removes never shrink the code space *)
  Alcotest.(check int) "codes never recycled" 2 (Dict.size dict)

let test_fingerprint_extension () =
  let rows = List.map Tuple.ints [ [ 1; 2 ]; [ 3; 4 ] ] in
  let adds = [| Tuple.ints [ 5; 6 ]; Tuple.ints [ 7; 8 ] |] in
  let r = relation_of "r" "a" rows in
  let grown =
    Relation.apply_delta r (Delta.v ~adds ~removes:[||])
  in
  let extended =
    Relation.Fp.render (Relation.Fp.feed_rows (Relation.Fp.of_relation r) adds)
  in
  Alcotest.(check string) "acc extension = from-scratch fingerprint"
    (Relation.fingerprint grown) extended;
  Alcotest.(check string) "of_relation = fingerprint"
    (Relation.fingerprint r)
    (Relation.Fp.render (Relation.Fp.of_relation r))

(* --------------------------- heap churn --------------------------- *)

let test_heap_delete () =
  let path = tmp_path ".jqh" in
  let h = Heap.create_file ~page_size:512 ~pool_frames:4 path in
  let rids =
    Array.init 40 (fun i -> Heap.append h (Printf.sprintf "record-%03d" i))
  in
  Heap.delete h rids.(5);
  Heap.delete h rids.(17);
  Alcotest.(check int) "live count" 38 (Heap.record_count h);
  Alcotest.(check bool) "get on deleted raises" true
    (match Heap.get h rids.(5) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "double delete raises" true
    (match Heap.delete h rids.(5) with
    | () -> false
    | exception Invalid_argument _ -> true);
  let seen = ref [] in
  Heap.iter h (fun _ record -> seen := record :: !seen);
  Alcotest.(check int) "iter skips tombstones" 38 (List.length !seen);
  Alcotest.(check bool) "deleted not scanned" true
    (not (List.mem "record-005" !seen));
  (* append after delete still lands at the tail, after every survivor *)
  let last_rid = Heap.append h "record-new" in
  Alcotest.(check string) "tail append readable" "record-new"
    (Heap.get h last_rid);
  Heap.sync h;
  Heap.close h;
  (* reopen rebuilds the live count from the directory alone *)
  let h2 = Heap.open_file ~pool_frames:4 path in
  Alcotest.(check int) "reopened live count" 39 (Heap.record_count h2);
  let order = ref [] in
  Heap.iter h2 (fun _ r -> order := r :: !order);
  Alcotest.(check (option string)) "append order preserved"
    (Some "record-new")
    (match !order with last :: _ -> Some last | [] -> None);
  Heap.close h2

let test_heap_frontier_reclaim () =
  let path = tmp_path ".jqh" in
  let h = Heap.create_file ~page_size:512 ~pool_frames:4 path in
  let a = Heap.append h (String.make 50 'a') in
  let b = Heap.append h (String.make 50 'b') in
  let c = Heap.append h (String.make 50 'c') in
  let free0 = Heap.free_bytes h in
  (* tombstone the middle record: length is parked, bytes not yet free *)
  Heap.delete h b;
  Alcotest.(check int) "mid tombstone frees nothing" free0 (Heap.free_bytes h);
  (* deleting the frontier cascades over the trailing tombstone: both
     records' bytes and slots come back *)
  Heap.delete h c;
  let freed = Heap.free_bytes h - free0 in
  Alcotest.(check int) "cascade reclaims both records" (2 * (50 + 4)) freed;
  Alcotest.(check string) "survivor intact" (String.make 50 'a') (Heap.get h a);
  Alcotest.(check int) "one live record" 1 (Heap.record_count h);
  Heap.close h

(* A rid is only good on a data page and within its slot array; one
   that names the meta or directory page, or a slot past the last, is a
   caller error for both [get] and [delete], and leaves the heap as it
   was. *)
let test_heap_rejects_foreign_rids () =
  let path = tmp_path ".jqh" in
  let h = Heap.create_file ~page_size:512 ~pool_frames:4 path in
  let rid = Heap.append h "only" in
  let raises f =
    match f () with exception Invalid_argument _ -> true | () -> false
  in
  List.iter
    (fun (what, r) ->
      Alcotest.(check bool) ("get: " ^ what) true
        (raises (fun () -> ignore (Heap.get h r)));
      Alcotest.(check bool) ("delete: " ^ what) true
        (raises (fun () -> Heap.delete h r)))
    [
      ("meta-page rid", 0);
      ("directory-page rid", 1 lsl 16);
      ("slot out of range", rid + 1);
    ];
  Alcotest.(check string) "record intact" "only" (Heap.get h rid);
  Alcotest.(check int) "live count" 1 (Heap.record_count h);
  Heap.close h

(* -------------------------- relstore churn ------------------------ *)

let test_relstore_churn_reopen () =
  let rows = List.map Tuple.ints [ [ 1; 2 ]; [ 3; 4 ]; [ 1; 2 ]; [ 5; 6 ] ] in
  let mem = relation_of "r" "a" rows in
  let store =
    Relstore.of_relation ~page_size:512 ~pool_frames:4 ~dest:(tmp_path ".jqh")
      mem
  in
  Relstore.apply_delta store
    ~adds:[| Tuple.ints [ 7; 8 ] |]
    ~removed:[| 0 |];
  let expect = [ [ 3; 4 ]; [ 1; 2 ]; [ 5; 6 ]; [ 7; 8 ] ] in
  let rows_of rel = List.map ints_of (Relation.to_list rel) in
  Alcotest.(check (list (list int))) "in-place churn" expect
    (rows_of (Relstore.relation store));
  Alcotest.(check int) "row count" 4 (Relstore.row_count store);
  let path = Relstore.path store in
  Relstore.close store;
  (* the reopen scan must rebuild exactly the post-churn row sequence *)
  let store2 = Relstore.open_file ~pool_frames:4 path in
  Alcotest.(check (list (list int))) "reopen preserves order" expect
    (rows_of (Relstore.relation store2));
  Relstore.close store2

let test_relation_apply_delta_paged () =
  let rows = List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let store =
    Relstore.of_relation ~page_size:512 ~pool_frames:4 ~dest:(tmp_path ".jqh")
      (relation_of "r" "a" rows)
  in
  let rel = Relstore.relation store in
  let d =
    Delta.of_lists ~adds:[ Tuple.ints [ 9 ] ] ~removes:[ Tuple.ints [ 2 ] ]
  in
  let rel' = Relation.apply_delta rel d in
  Alcotest.(check string) "stays paged" "paged" (Relation.backend_name rel');
  Alcotest.(check (list (list int))) "paged churn"
    [ [ 1 ]; [ 3 ]; [ 9 ] ]
    (List.map ints_of (Relation.to_list rel'));
  Relstore.close store

(* --------------------- universe delta, deterministic -------------- *)

let build_of rows_r rows_p =
  Universe.build [ relation_of "r" "a" rows_r; relation_of "p" "b" rows_p ]

let test_universe_insert_only () =
  let rows_r = List.map Tuple.ints [ [ 1; 2 ]; [ 2; 1 ]; [ 1; 2 ] ] in
  let rows_p = List.map Tuple.ints [ [ 1 ]; [ 2 ] ] in
  let u = build_of rows_r rows_p in
  let d = Delta.of_lists ~adds:[ Tuple.ints [ 2; 2 ]; Tuple.ints [ 1; 2 ] ] ~removes:[] in
  let u' = Universe.apply_delta u [ (0, d) ] in
  let rebuilt =
    build_of (apply_ref rows_r d) rows_p
  in
  check_agree "insert-only = rebuild" rebuilt u';
  Alcotest.(check int) "|D| grew" 10 (Universe.total_tuples u')

let test_universe_delete_rep () =
  (* Deleting row 0 of R always damages representatives (every class rep
     is lex-smallest, and some class owns row 0) — exercises the repair
     pass. *)
  let rows_r = List.map Tuple.ints [ [ 1; 2 ]; [ 1; 2 ]; [ 2; 1 ]; [ 3; 3 ] ] in
  let rows_p = List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 1 ] ] in
  let u = build_of rows_r rows_p in
  let d = Delta.of_lists ~adds:[] ~removes:[ Tuple.ints [ 1; 2 ] ] in
  let u' = Universe.apply_delta u [ (0, d) ] in
  check_agree "rep-damaging delete = rebuild" (build_of (apply_ref rows_r d) rows_p) u'

let test_universe_retire_and_mint () =
  let rows_r = List.map Tuple.ints [ [ 1; 1 ]; [ 2; 2 ] ] in
  let rows_p = List.map Tuple.ints [ [ 1 ]; [ 2 ] ] in
  let u = build_of rows_r rows_p in
  let n0 = Universe.n_classes u in
  (* remove the only row joining 1s, add a row joining nothing old *)
  let d =
    Delta.of_lists ~adds:[ Tuple.ints [ 9; 9 ] ]
      ~removes:[ Tuple.ints [ 1; 1 ] ]
  in
  let u' = Universe.apply_delta u [ (0, d) ] in
  let rebuilt = build_of (apply_ref rows_r d) rows_p in
  check_agree "retire + mint = rebuild" rebuilt u';
  Alcotest.(check int) "class count stable here" n0 (Universe.n_classes u');
  (* the full-join class lost a member to the all-miss class *)
  Alcotest.(check bool) "multiplicities shifted" true
    (not (universes_agree u u'))

let test_universe_multi_relation_deltas () =
  let rows_r = List.map Tuple.ints [ [ 1; 2 ]; [ 2; 1 ] ] in
  let rows_p = List.map Tuple.ints [ [ 1 ]; [ 3 ] ] in
  let u = build_of rows_r rows_p in
  let dr = Delta.of_lists ~adds:[ Tuple.ints [ 3; 1 ] ] ~removes:[ Tuple.ints [ 1; 2 ] ] in
  let dp = Delta.of_lists ~adds:[ Tuple.ints [ 2 ] ] ~removes:[ Tuple.ints [ 3 ] ] in
  let u' = Universe.apply_delta u [ (0, dr); (1, dp) ] in
  check_agree "both relations in one call = rebuild"
    (build_of (apply_ref rows_r dr) (apply_ref rows_p dp))
    u';
  (* chained single-relation calls agree too (cache rides along) *)
  let u'' = Universe.apply_delta (Universe.apply_delta u [ (0, dr) ]) [ (1, dp) ] in
  check_agree "chained calls = rebuild" u' u''

let test_universe_drain_and_refill () =
  (* Emptying a relation mid-call is fine as long as the final product
     is non-empty; fully emptying it raises like [build] would. *)
  let rows_r = List.map Tuple.ints [ [ 1 ]; [ 2 ] ] in
  let rows_p = List.map Tuple.ints [ [ 1 ] ] in
  let u = build_of rows_r rows_p in
  let drain = Delta.of_lists ~adds:[] ~removes:(List.map Tuple.ints [ [ 1 ]; [ 2 ] ]) in
  let refill = Delta.of_lists ~adds:[ Tuple.ints [ 5 ] ] ~removes:[] in
  let u' = Universe.apply_delta u [ (0, drain); (0, refill) ] in
  check_agree "drain then refill = rebuild" (build_of [ Tuple.ints [ 5 ] ] rows_p) u';
  Alcotest.(check bool) "emptying the product raises" true
    (match Universe.apply_delta u [ (0, drain) ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_universe_kary_delta () =
  let r0 = List.map Tuple.ints [ [ 1; 2 ]; [ 2; 2 ] ] in
  let r1 = List.map Tuple.ints [ [ 2 ]; [ 3 ] ] in
  let r2 = List.map Tuple.ints [ [ 3; 1 ]; [ 1; 1 ]; [ 3; 1 ] ] in
  let rels = [ relation_of "r0" "a" r0; relation_of "r1" "b" r1; relation_of "r2" "c" r2 ] in
  let u = Universe.build rels in
  let d = Delta.of_lists ~adds:[ Tuple.ints [ 1; 1 ] ] ~removes:[ Tuple.ints [ 3; 1 ] ] in
  let u' = Universe.apply_delta u [ (2, d) ] in
  let rebuilt =
    Universe.build
      [ relation_of "r0" "a" r0; relation_of "r1" "b" r1;
        relation_of "r2" "c" (apply_ref r2 d) ]
  in
  check_agree "k-ary delta = build_kary rebuild" rebuilt u'

(* ---------------------- qcheck edit scripts ----------------------- *)

let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Value.Int i) (int_bound 3));
        (2, return Value.Null);
        (1, map (fun i -> Value.Float (float_of_int i)) (int_bound 2));
        (1, map (fun i -> Value.Str (String.make 1 (Char.chr (49 + i)))) (int_bound 2));
      ])

(* An edit script: initial rows plus batches of (adds, remove picks).
   Removes are resolved against the current rows inside the property
   (pick modulo the live row count), so every remove matches and the
   relation never empties. *)
let gen_script arity =
  QCheck.Gen.(
    let row = map Tuple.of_list (list_repeat arity gen_cell) in
    let batch =
      let* adds = list_size (int_range 0 3) row in
      let* picks = list_size (int_range 0 2) (int_bound 1000) in
      return (adds, picks)
    in
    let* init = list_size (int_range 1 5) row in
    let* batches = list_size (int_range 1 4) batch in
    return (init, batches))

let delta_of_batch rows (adds, picks) =
  (* resolve picks to removable row values, never emptying the relation *)
  let removes, _, _ =
    List.fold_left
      (fun (removes, live, n) pick ->
        if n <= 1 then (removes, live, n)
        else
          let i = pick mod n in
          let v = List.nth live i in
          (v :: removes, List.filteri (fun j _ -> j <> i) live, n - 1))
      ([], rows, List.length rows) picks
  in
  Delta.of_lists ~adds ~removes

(* Drive one relation's edit script against a fixed partner, comparing
   the incrementally maintained universe to a from-scratch build after
   every batch.  [edges] masks the k-ary universe's Ω. *)
let run_script ?edges ~kary (init_r, batches) =
  let rows_p = List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 1 ] ] in
  let p = relation_of "p" "b" rows_p in
  let build rows =
    if kary then
      Universe.build ?edges
        [ relation_of "r" "a" rows; p; relation_of "q" "c" rows_p ]
    else Universe.build [ relation_of "r" "a" rows; p ]
  in
  let u0 = build init_r in
  let rec go u rows = function
    | [] -> true
    | batch :: rest ->
        let d = delta_of_batch rows batch in
        let u' = Universe.apply_delta u [ (0, d) ] in
        let rows' = apply_ref rows d in
        universes_agree (build rows') u' && go u' rows' rest
  in
  go u0 init_r batches

let gen_script_arity lo hi =
  QCheck.Gen.(
    let* arity = int_range lo hi in
    gen_script arity)

let qcheck_binary_scripts =
  QCheck.Test.make ~name:"apply_delta = rebuild on random edit scripts (binary)"
    ~count:120
    (QCheck.make (gen_script_arity 1 3))
    (run_script ~kary:false)

let qcheck_kary_scripts =
  QCheck.Test.make ~name:"apply_delta = rebuild on random edit scripts (k-ary)"
    ~count:60
    (QCheck.make (gen_script_arity 1 2))
    (run_script ~kary:true)

(* A join-path universe: the churned relation r only joins p, and p
   only joins q. *)
let qcheck_chain_scripts =
  QCheck.Test.make
    ~name:"apply_delta = rebuild on random edit scripts (chain-masked)" ~count:60
    (QCheck.make (gen_script_arity 1 2))
    (run_script ~edges:[ (0, 1); (1, 2) ] ~kary:true)

(* Same oracle with the churned relation living in a paged store: deltas
   mutate the heap file in place through the backend hook. *)
let run_script_paged (init_r, batches) =
  let rows_p = List.map Tuple.ints [ [ 1 ]; [ 2 ]; [ 1 ] ] in
  let p = relation_of "p" "b" rows_p in
  let store =
    Relstore.of_relation ~page_size:512 ~pool_frames:4 ~dest:(tmp_path ".jqh")
      (relation_of "r" "a" init_r)
  in
  let u0 = Universe.build [ Relstore.relation store; p ] in
  let rec go u rows = function
    | [] -> true
    | batch :: rest ->
        let d = delta_of_batch rows batch in
        let u' = Universe.apply_delta u [ (0, d) ] in
        let rows' = apply_ref rows d in
        universes_agree (Universe.build [ relation_of "r" "a" rows'; p ]) u'
        && go u' rows' rest
  in
  let ok = go u0 init_r batches in
  let pinned = Buffer_pool.pinned (Relstore.pool store) in
  Relstore.close store;
  ok && Int.equal pinned 0

let qcheck_paged_scripts =
  QCheck.Test.make ~name:"apply_delta = rebuild on random edit scripts (paged)"
    ~count:40
    (QCheck.make (gen_script_arity 1 2))
    run_script_paged

let suite =
  [
    Alcotest.test_case "delta basics" `Quick test_delta_basics;
    Alcotest.test_case "resolve removes by value" `Quick test_resolve_removes;
    Alcotest.test_case "apply_delta on Mem" `Quick test_apply_delta_mem;
    Alcotest.test_case "dict intern_delta" `Quick test_intern_delta;
    Alcotest.test_case "fingerprint accumulator extension" `Quick
      test_fingerprint_extension;
    Alcotest.test_case "heap delete + reopen" `Quick test_heap_delete;
    Alcotest.test_case "heap frontier reclamation" `Quick
      test_heap_frontier_reclaim;
    Alcotest.test_case "heap get/delete reject rids outside data pages" `Quick
      test_heap_rejects_foreign_rids;
    Alcotest.test_case "relstore churn + reopen" `Quick
      test_relstore_churn_reopen;
    Alcotest.test_case "apply_delta on Paged" `Quick
      test_relation_apply_delta_paged;
    Alcotest.test_case "universe: insert-only" `Quick test_universe_insert_only;
    Alcotest.test_case "universe: rep-damaging delete" `Quick
      test_universe_delete_rep;
    Alcotest.test_case "universe: retire + mint" `Quick
      test_universe_retire_and_mint;
    Alcotest.test_case "universe: multi-relation deltas" `Quick
      test_universe_multi_relation_deltas;
    Alcotest.test_case "universe: drain, refill, empty raises" `Quick
      test_universe_drain_and_refill;
    Alcotest.test_case "universe: k-ary delta" `Quick test_universe_kary_delta;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_binary_scripts;
        qcheck_kary_scripts;
        qcheck_paged_scripts;
        qcheck_chain_scripts;
      ]
