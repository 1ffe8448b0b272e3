(* Differential suite for the out-of-core storage engine (jqi.storage).

   The contract under test is byte-identity: a relation pushed through a
   heap-file store must reproduce the in-memory relation exactly —
   fingerprints, rows, and the universes built over it (binary and
   k-ary, quotient and naive) class for class.  Alongside the
   differentials: heap-file round-trips (including reopen-from-disk),
   buffer-pool invariants under a random pin/unpin/allocate hammer
   (pinned frames survive eviction pressure; exhaustion raises rather
   than corrupts), and the on-disk page-kind bytes heap files rely
   on. *)

module Bits = Jqi_util.Bits
module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Csv = Jqi_relational.Csv
module Universe = Jqi_core.Universe
module Page = Jqi_storage.Page
module Pager = Jqi_storage.Pager
module Buffer_pool = Jqi_storage.Buffer_pool
module Heap = Jqi_storage.Heap
module Relstore = Jqi_storage.Relstore

let tmp_path suffix =
  let path = Filename.temp_file "jqi-test" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

(* ----------------------------- page codec ------------------------- *)

let test_page_codec () =
  let buf = Page.alloc 512 Page.Heap_data in
  Alcotest.(check bool) "kind" true (Page.has_kind buf Page.Heap_data);
  Page.set_u8 buf 100 0xAB;
  Page.set_u16 buf 101 0xBEEF;
  Page.set_u32 buf 103 0xDEADBEEF;
  Page.set_string buf ~off:107 "hello";
  Alcotest.(check int) "u8" 0xAB (Page.get_u8 buf 100);
  Alcotest.(check int) "u16" 0xBEEF (Page.get_u16 buf 101);
  Alcotest.(check int) "u32" 0xDEADBEEF (Page.get_u32 buf 103);
  Alcotest.(check string) "string" "hello"
    (Page.get_string buf ~off:107 ~len:5);
  Page.set_kind buf Page.Heap_dir;
  Alcotest.(check bool) "rekind" true (Page.has_kind buf Page.Heap_dir)

(* Heap files written by earlier builds must reopen unchanged, so the
   kind tags are a fixed on-disk format; unknown tags decode to None. *)
let test_page_kind_bytes () =
  List.iter
    (fun (kind, byte) ->
      let name = Format.asprintf "%a" Page.pp_kind kind in
      Alcotest.(check int) (name ^ " byte") byte (Page.kind_to_byte kind);
      Alcotest.(check bool) (name ^ " decodes") true
        (Page.kind_of_byte byte = Some kind))
    [ (Page.Free, 0); (Page.Meta, 1); (Page.Heap_dir, 2); (Page.Heap_data, 3) ];
  List.iter
    (fun byte ->
      Alcotest.(check bool) (Printf.sprintf "byte %d is unknown" byte) true
        (Page.kind_of_byte byte = None))
    [ 4; 5; 255 ]

let test_pager_rejects_foreign () =
  let path = tmp_path ".bin" in
  let oc = open_out_bin path in
  output_string oc "not a pager file at all";
  close_out oc;
  Alcotest.(check bool) "bad magic raises Bad_file" true
    (match Pager.open_existing path with
    | exception Pager.Bad_file _ -> true
    | _ -> false)

(* ------------------------------ heap ------------------------------ *)

let gen_record =
  QCheck.Gen.(
    let* n = frequency [ (5, int_bound 40); (2, int_bound 400); (1, return 0) ] in
    map Bytes.unsafe_to_string (bytes_size (return n)))

let qcheck_heap_roundtrip =
  QCheck.Test.make ~name:"heap: append/get/iter/reopen byte-identity"
    ~count:60
    QCheck.(make Gen.(list_size (int_range 0 120) gen_record))
    (fun records ->
      let path = tmp_path ".jqh" in
      let h = Heap.create_file ~page_size:512 ~pool_frames:4 path in
      let rids = List.map (fun r -> Heap.append h r) records in
      let ok_get =
        List.for_all2 (fun rid r -> String.equal (Heap.get h rid) r)
          rids records
      in
      let seen = ref [] in
      Heap.iter h (fun rid r -> seen := (rid, r) :: !seen);
      let ok_iter =
        List.equal
          (fun (rid1, r1) (rid2, r2) -> rid1 = rid2 && String.equal r1 r2)
          (List.combine rids records)
          (List.rev !seen)
      in
      let ok_count = Heap.record_count h = List.length records in
      Heap.close h;
      (* Reopen from disk: the dir walk must rediscover everything. *)
      let h2 = Heap.open_file ~pool_frames:4 path in
      let ok_reopen =
        Heap.record_count h2 = List.length records
        && List.for_all2 (fun rid r -> String.equal (Heap.get h2 rid) r)
             rids records
      in
      (* Appends after reopen land after the existing records. *)
      let rid' = Heap.append h2 "after-reopen" in
      let ok_append = String.equal (Heap.get h2 rid') "after-reopen" in
      let ok_pins = Buffer_pool.pinned (Heap.pool h2) = 0 in
      Heap.close h2;
      ok_get && ok_iter && ok_count && ok_reopen && ok_append && ok_pins)

let test_heap_meta_roundtrip () =
  let path = tmp_path ".jqh" in
  let h = Heap.create_file ~page_size:512 path in
  Heap.set_meta h "some schema blob \x00\x01\xff";
  ignore (Heap.append h "row");
  Heap.close h;
  let h2 = Heap.open_file path in
  Alcotest.(check string) "meta" "some schema blob \x00\x01\xff" (Heap.meta h2);
  Heap.close h2

let test_heap_oversized_record () =
  let path = tmp_path ".jqh" in
  let h = Heap.create_file ~page_size:512 path in
  let too_big = String.make (Heap.max_record h + 1) 'x' in
  Alcotest.(check bool) "raises" true
    (match Heap.append h too_big with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* The store is still usable after the rejected append. *)
  let rid = Heap.append h (String.make (Heap.max_record h) 'y') in
  Alcotest.(check int) "max-size record survives" (Heap.max_record h)
    (String.length (Heap.get h rid));
  Heap.close h

(* A reopen walks the directory chain from the meta page; a chain link
   that lands on a page of another kind is a corrupt file, not a crash. *)
let test_heap_reopen_rejects_non_dir () =
  let path = tmp_path ".jqh" in
  let h = Heap.create_file ~page_size:512 path in
  ignore (Heap.append h "row");
  (* Page 1 is the first directory page: [Heap.create] allocates it
     right after the meta page. *)
  Buffer_pool.with_page_rw (Heap.pool h) 1 (fun buf ->
      Alcotest.(check bool) "page 1 is the directory" true
        (Page.has_kind buf Page.Heap_dir);
      Page.set_kind buf Page.Heap_data);
  Heap.close h;
  Alcotest.(check bool) "reopen raises Bad_file" true
    (match Heap.open_file path with
    | exception Pager.Bad_file _ -> true
    | h2 ->
        Heap.close h2;
        false)

(* --------------------------- buffer pool -------------------------- *)

(* Random pin/unpin/write/flush hammer against a shadow model of page
   contents.  The model writes a counter stamp into a fixed offset of
   each page through [with_page_rw]; at every read the stamp must match
   the model regardless of the eviction traffic in between. *)
let qcheck_pool_hammer =
  QCheck.Test.make ~name:"buffer pool: random ops match shadow model"
    ~count:40
    QCheck.(
      make
        Gen.(
          list_size (int_range 1 300)
            (pair (int_bound 11) (int_bound 99))))
    (fun ops ->
      let path = tmp_path ".jqp" in
      let pager = Pager.create ~page_size:512 path in
      let pool = Buffer_pool.create ~frames:3 pager in
      let n_pages = 12 in
      for _ = 1 to n_pages do
        ignore (Buffer_pool.allocate pool Page.Heap_data)
      done;
      let model = Array.make n_pages 0 in
      let ok = ref true in
      List.iter
        (fun (pid, stamp) ->
          (* Read-check then write the new stamp. *)
          Buffer_pool.with_page_rw pool pid (fun buf ->
              if Page.get_u16 buf 64 <> model.(pid) then ok := false;
              Page.set_u16 buf 64 stamp);
          model.(pid) <- stamp;
          if stamp mod 17 = 0 then Buffer_pool.flush pool)
        ops;
      (* Every page, including evicted-and-reloaded ones, must hold the
         model's last write. *)
      for pid = 0 to n_pages - 1 do
        Buffer_pool.with_page pool pid (fun buf ->
            if Page.get_u16 buf 64 <> model.(pid) then ok := false)
      done;
      let no_leak = Buffer_pool.pinned pool = 0 in
      let resident_bounded = Buffer_pool.resident pool <= 3 in
      Buffer_pool.close pool;
      (* Durability: reopen through a fresh pool and re-check. *)
      let pager2 = Pager.open_existing path in
      let pool2 = Buffer_pool.create ~frames:3 pager2 in
      for pid = 0 to n_pages - 1 do
        Buffer_pool.with_page pool2 pid (fun buf ->
            if Page.get_u16 buf 64 <> model.(pid) then ok := false)
      done;
      Buffer_pool.close pool2;
      !ok && no_leak && resident_bounded)

let test_pool_exhaustion () =
  let path = tmp_path ".jqp" in
  let pool = Buffer_pool.create ~frames:2 (Pager.create ~page_size:512 path) in
  for _ = 1 to 4 do
    ignore (Buffer_pool.allocate pool Page.Heap_data)
  done;
  let f0 = Buffer_pool.pin pool 0 in
  let f1 = Buffer_pool.pin pool 1 in
  Alcotest.(check bool) "third pin raises Exhausted" true
    (match Buffer_pool.pin pool 2 with
    | exception Buffer_pool.Exhausted n -> n = 2
    | _ -> false);
  (* Unpinning one frame frees a victim; the pool recovers. *)
  Buffer_pool.unpin pool f1;
  let f2 = Buffer_pool.pin pool 2 in
  Buffer_pool.unpin pool f2;
  Buffer_pool.unpin pool f0;
  Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned pool);
  Buffer_pool.close pool

let test_pinned_never_evicted () =
  let path = tmp_path ".jqp" in
  let pool = Buffer_pool.create ~frames:3 (Pager.create ~page_size:512 path) in
  for _ = 1 to 10 do
    ignore (Buffer_pool.allocate pool Page.Heap_data)
  done;
  Buffer_pool.flush pool;
  let f = Buffer_pool.pin pool 7 in
  Page.set_u16 (Buffer_pool.frame_buf f) 32 4242;
  (* Storm over every other page: 7 is pinned, so its frame must survive
     with the un-flushed write intact. *)
  for round = 1 to 3 do
    ignore round;
    for pid = 0 to 6 do
      Buffer_pool.with_page pool pid ignore
    done
  done;
  Alcotest.(check int) "pinned frame still maps page 7" 7
    (Buffer_pool.frame_page f);
  Alcotest.(check int) "pinned frame content intact" 4242
    (Page.get_u16 (Buffer_pool.frame_buf f) 32);
  Buffer_pool.unpin ~dirty:true pool f;
  Alcotest.(check int) "no pins leaked" 0 (Buffer_pool.pinned pool);
  Buffer_pool.close pool

let test_unpin_unpinned_rejected () =
  let path = tmp_path ".jqp" in
  let pool = Buffer_pool.create ~frames:2 (Pager.create ~page_size:512 path) in
  ignore (Buffer_pool.allocate pool Page.Heap_data);
  let f = Buffer_pool.pin pool 0 in
  Buffer_pool.unpin pool f;
  Alcotest.(check bool) "double unpin raises" true
    (match Buffer_pool.unpin pool f with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Buffer_pool.close pool

(* ------------------------- relstore differential ------------------ *)

(* Mixed-type cells: NULLs and NaNs (never interned), negative ints and
   floats with awkward bits, strings with separators and quotes. *)
let gen_cell =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Value.Int (i - 3)) (int_bound 7));
        (2, return Value.Null);
        (1, map (fun b -> Value.Bool b) bool);
        (1, map (fun i -> Value.Float (float_of_int i /. 2.)) (int_bound 4));
        (1, return (Value.Float Float.nan));
        (1, return (Value.Float (-0.0)));
        (1, oneofl [ Value.Str "a"; Value.Str "b,c"; Value.Str "d\"e" ]);
      ])

let gen_rows =
  QCheck.Gen.(
    let row arity = map Tuple.of_list (list_repeat arity gen_cell) in
    let* arity = int_range 1 3 in
    let* dup = bool in
    if dup then
      let* pool = list_size (int_range 1 3) (row arity) in
      list_size (int_range 1 15) (oneofl pool)
    else list_size (int_range 1 12) (row arity))

let relation_of name prefix rows =
  let arity = Tuple.arity (List.hd rows) in
  Relation.of_list ~name
    ~schema:
      (Schema.of_names ~ty:Value.TInt
         (List.init arity (fun i -> Printf.sprintf "%s%d" prefix i)))
    rows

(* Copy [rel] into a paged store with a pool small enough to evict. *)
let paged_copy rel =
  let store =
    Relstore.of_relation ~page_size:512 ~pool_frames:3
      ~dest:(tmp_path ".jqh") rel
  in
  (store, Relstore.relation store)

let rows_equal r1 r2 =
  Relation.cardinality r1 = Relation.cardinality r2
  &&
  let ok = ref true in
  Relation.iteri
    (fun i row -> if not (Tuple.equal row (Relation.row r1 i)) then ok := false)
    r2;
  !ok

let qcheck_relstore_roundtrip =
  QCheck.Test.make ~name:"relstore: paged relation = source relation"
    ~count:120
    QCheck.(make gen_rows)
    (fun rows ->
      let rel = relation_of "r" "a" rows in
      let store, paged = paged_copy rel in
      let ok =
        rows_equal rel paged
        && String.equal (Relation.fingerprint rel) (Relation.fingerprint paged)
        && Relstore.row_count store = Relation.cardinality rel
        && Buffer_pool.pinned (Relstore.pool store) = 0
      in
      (* Reopen from disk: one streaming scan rebuilds the dictionary. *)
      let path = Relstore.path store in
      Relstore.close store;
      let store2 = Relstore.open_file ~pool_frames:3 path in
      let paged2 = Relstore.relation store2 in
      let ok_reopen =
        rows_equal rel paged2
        && String.equal (Relation.fingerprint rel)
             (Relation.fingerprint paged2)
        && Schema.equal (Relation.schema rel) (Relation.schema paged2)
      in
      Relstore.close store2;
      ok && ok_reopen)

let universes_agree u1 u2 =
  Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
  && Int.equal (Universe.total_tuples u1) (Universe.total_tuples u2)
  && Float.equal (Universe.join_ratio u1) (Universe.join_ratio u2)
  &&
  let rec go i =
    i >= Universe.n_classes u1
    || Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
       && Int.equal (Universe.count u1 i) (Universe.count u2 i)
       && (Universe.cls u1 i).Universe.rep = (Universe.cls u2 i).Universe.rep
       && go (i + 1)
  in
  go 0

let qcheck_universe_backends_agree =
  QCheck.Test.make
    ~name:"universe: Paged = Mem = naive (quotient differential)" ~count:120
    QCheck.(make Gen.(pair gen_rows gen_rows))
    (fun (rrows, prows) ->
      let r = relation_of "r" "a" rrows and p = relation_of "p" "b" prows in
      let sr, pr = paged_copy r and sp, pp = paged_copy p in
      let mem_u = Universe.build [ r; p ] in
      let paged_u = Universe.build [ pr; pp ] in
      let naive_u = Universe.build_naive r p in
      let ok = universes_agree mem_u paged_u && universes_agree naive_u paged_u in
      let no_leak =
        Buffer_pool.pinned (Relstore.pool sr) = 0
        && Buffer_pool.pinned (Relstore.pool sp) = 0
      in
      Relstore.close sr;
      Relstore.close sp;
      ok && no_leak)

let qcheck_kary_backends_agree =
  QCheck.Test.make ~name:"universe: k-ary Paged = Mem" ~count:40
    QCheck.(make Gen.(triple gen_rows gen_rows gen_rows))
    (fun (arows, brows, crows) ->
      let rels =
        [
          relation_of "ra" "a" arows;
          relation_of "rb" "b" brows;
          relation_of "rc" "c" crows;
        ]
      in
      let stores_paged = List.map paged_copy rels in
      let mem_u = Universe.build rels in
      let paged_u = Universe.build (List.map snd stores_paged) in
      let ok = universes_agree mem_u paged_u in
      List.iter (fun (s, _) -> Relstore.close s) stores_paged;
      ok)

(* ----------------------- csv streaming import --------------------- *)

let qcheck_load_into_matches_load_relation =
  QCheck.Test.make
    ~name:"csv: streamed paged load = in-memory load (inferred schema)"
    ~count:60
    QCheck.(make gen_rows)
    (fun rows ->
      let rel = relation_of "r" "c" rows in
      let path = tmp_path ".csv" in
      Csv.save_relation path rel;
      let mem = Csv.load_relation ~name:"r" path in
      let paged =
        Relstore.load_csv_relation
          ~backend:(Relstore.Paged { frames = 3; dir = None })
          ~name:"r" path
      in
      Schema.equal (Relation.schema mem) (Relation.schema paged)
      && String.equal (Relation.fingerprint mem) (Relation.fingerprint paged))

let test_load_into_errors_match () =
  (* Ragged and empty inputs must fail with the same message as the
     in-memory loader, from the same record numbering. *)
  let path = tmp_path ".csv" in
  let oc = open_out path in
  output_string oc "a,b\n1,2\n3\n";
  close_out oc;
  let msg_of f = try ignore (f ()); "no error" with Invalid_argument m -> m in
  Alcotest.(check string) "ragged message"
    (msg_of (fun () -> Csv.load_relation ~name:"r" path))
    (msg_of (fun () ->
         Relstore.load_csv ~dest:(tmp_path ".jqh") ~name:"r" path));
  let empty = tmp_path ".csv" in
  let oc = open_out empty in
  close_out oc;
  Alcotest.(check string) "empty message"
    (msg_of (fun () -> Csv.load_relation ~name:"r" empty))
    (msg_of (fun () ->
         Relstore.load_csv ~dest:(tmp_path ".jqh") ~name:"r" empty))

let test_backend_of_string () =
  let frames = 7 in
  Alcotest.(check bool) "mem" true
    (Relstore.backend_of_string ~frames "mem" = Some Relstore.Mem);
  Alcotest.(check bool) "paged" true
    (match Relstore.backend_of_string ~frames "Paged" with
    | Some (Relstore.Paged { frames = f; dir = None }) -> f = frames
    | Some (Relstore.Paged _ | Relstore.Mem) | None -> false);
  Alcotest.(check bool) "junk" true
    (Relstore.backend_of_string ~frames "zork" = None)

let suite =
  [
    Alcotest.test_case "page codec round-trips" `Quick test_page_codec;
    Alcotest.test_case "pager rejects foreign files" `Quick
      test_pager_rejects_foreign;
    Alcotest.test_case "heap meta round-trips" `Quick test_heap_meta_roundtrip;
    Alcotest.test_case "heap rejects oversized records" `Quick
      test_heap_oversized_record;
    Alcotest.test_case "pool exhaustion raises and recovers" `Quick
      test_pool_exhaustion;
    Alcotest.test_case "pinned frames survive eviction pressure" `Quick
      test_pinned_never_evicted;
    Alcotest.test_case "double unpin rejected" `Quick
      test_unpin_unpinned_rejected;
    Alcotest.test_case "csv error parity (ragged/empty)" `Quick
      test_load_into_errors_match;
    Alcotest.test_case "backend_of_string" `Quick test_backend_of_string;
    Alcotest.test_case "page kinds keep their on-disk bytes" `Quick
      test_page_kind_bytes;
    Alcotest.test_case "heap reopen rejects a non-directory page" `Quick
      test_heap_reopen_rejects_non_dir;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_heap_roundtrip;
        qcheck_pool_hammer;
        qcheck_relstore_roundtrip;
        qcheck_universe_backends_agree;
        qcheck_kary_backends_agree;
        qcheck_load_into_matches_load_relation;
      ]
