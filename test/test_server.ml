(* The service layer: catalog universe cache (content-addressed, build
   shared across sessions), session manager lifecycle + idle eviction,
   the wire codec (QCheck roundtrips; garbage must come back as error
   frames, never exceptions) and the frame dispatcher. *)

open Fixtures
module Bits = Jqi_util.Bits
module Json = Jqi_util.Json
module Obs = Jqi_obs.Obs
module Csv = Jqi_relational.Csv
module Engine = Jqi_core.Engine
module Sample = Jqi_core.Sample
module Catalog = Jqi_server.Catalog
module Manager = Jqi_server.Manager
module P = Jqi_server.Protocol
module Service = Jqi_server.Service
module Delta = Jqi_relational.Delta

let fh_omega =
  Jqi_core.Omega.of_schemas
    (Relation.schema Fixtures.flight)
    (Relation.schema Fixtures.hotel)

(* The Figure-1 goal: Flight.To = Hotel.City. *)
let fh_goal = Jqi_core.Omega.of_names fh_omega [ ("To", "City") ]

let label_for goal signature =
  if Bits.subset goal signature then Sample.Positive else Sample.Negative

let fh_catalog () =
  let catalog = Catalog.create () in
  Catalog.add catalog Fixtures.flight;
  Catalog.add catalog Fixtures.hotel;
  catalog

(* ----------------------------- catalog ----------------------------- *)

let universe_of catalog names =
  match Catalog.universe catalog names with
  | Ok hit_u -> hit_u
  | Error name -> Alcotest.failf "no relation %S in the catalog" name

let test_catalog_cache () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let catalog = fh_catalog () in
      let hit1, u1 = universe_of catalog [ "Flight"; "Hotel" ] in
      let hit2, u2 = universe_of catalog [ "Flight"; "Hotel" ] in
      Alcotest.(check bool) "first build misses" false hit1;
      Alcotest.(check bool) "second hits" true hit2;
      Alcotest.(check bool) "same universe shared" true (u1 == u2);
      Alcotest.(check (pair int int)) "stats" (1, 1) (Catalog.stats catalog);
      (* The cache is keyed by content, not registration name. *)
      Catalog.add ~name:"flight2" catalog Fixtures.flight;
      let hit3, u3 = universe_of catalog [ "flight2"; "Hotel" ] in
      Alcotest.(check bool) "renamed content still hits" true hit3;
      Alcotest.(check bool) "still shared" true (u1 == u3);
      (* Swapping the pair is a different product: a fresh build. *)
      let hit4, _ = universe_of catalog [ "Hotel"; "Flight" ] in
      Alcotest.(check bool) "swapped pair misses" false hit4;
      let report = Obs.Report.snapshot () in
      Alcotest.(check int) "hit counter" 2
        (Obs.Report.counter report "server.universe_cache_hit");
      Alcotest.(check int) "miss counter = builds performed" 2
        (Obs.Report.counter report "server.universe_cache_miss"))

let test_catalog_names () =
  let catalog = fh_catalog () in
  Alcotest.(check (list string)) "sorted names" [ "Flight"; "Hotel" ]
    (Catalog.names catalog);
  Alcotest.(check bool) "find hit" true (Catalog.find catalog "Hotel" <> None);
  Alcotest.(check bool) "find miss" true (Catalog.find catalog "nope" = None)

let test_fingerprint () =
  let fp = Relation.fingerprint in
  let flight_copy =
    Relation.of_list ~name:(Relation.name Fixtures.flight)
      ~schema:(Relation.schema Fixtures.flight)
      (Array.to_list (Relation.rows Fixtures.flight))
  in
  Alcotest.(check string) "structural copy, same fingerprint"
    (fp Fixtures.flight) (fp flight_copy);
  Alcotest.(check bool) "different relations differ" true
    (not (String.equal (fp Fixtures.flight) (fp Fixtures.hotel)));
  let grown =
    Relation.with_rows Fixtures.flight
      (Array.append
         (Relation.rows Fixtures.flight)
         [| Tuple.strs [ "NYC"; "Lille"; "AF" ] |])
  in
  Alcotest.(check bool) "adding a row changes it" true
    (not (String.equal (fp Fixtures.flight) (fp grown)))

(* ----------------------------- manager ----------------------------- *)

let expect_ok what = function
  | Ok x -> x
  | Error e -> Alcotest.fail (what ^ ": " ^ Manager.error_message e)

let rec drive_manager manager id turn =
  match turn with
  | Manager.Finished outcome -> outcome
  | Manager.Next q ->
      drive_manager manager id
        (expect_ok "tell"
           (Manager.tell manager id (label_for fh_goal q.Engine.signature)))

let test_manager_lifecycle () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let manager = Manager.create (fh_catalog ()) in
      let info =
        expect_ok "open"
          (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"td")
      in
      Alcotest.(check string) "first id" "s1" info.Manager.id;
      Alcotest.(check bool) "first open builds" false info.Manager.cache_hit;
      Alcotest.(check string) "strategy name" "TD" info.Manager.strategy_name;
      let outcome =
        drive_manager manager info.Manager.id
          (expect_ok "ask" (Manager.ask manager info.Manager.id))
      in
      Alcotest.check bits_testable "inferred the goal" fh_goal
        outcome.Engine.predicate;
      Alcotest.(check bool) "halted" true outcome.Engine.halted;
      (* A label without an outstanding question is an error, not a crash. *)
      (match Manager.tell manager info.Manager.id Sample.Positive with
      | Error (Manager.No_pending _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected No_pending");
      (* Second session over the same pair shares the universe. *)
      let info2 =
        expect_ok "open2"
          (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"bu")
      in
      Alcotest.(check bool) "second open hits the cache" true
        info2.Manager.cache_hit;
      let report = Obs.Report.snapshot () in
      Alcotest.(check int) "exactly one universe build" 1
        (Obs.Report.counter report "server.universe_cache_miss");
      Alcotest.(check int) "opens counted" 2
        (Obs.Report.counter report "server.sessions_opened");
      Alcotest.(check int) "close" 2 (Manager.session_count manager);
      (match Manager.close manager info.Manager.id with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Manager.error_message e));
      (match Manager.close manager info.Manager.id with
      | Error (Manager.Unknown_session _) -> ()
      | Ok () | Error _ -> Alcotest.fail "double close must fail");
      Alcotest.(check (list string)) "remaining ids" [ info2.Manager.id ]
        (Manager.session_ids manager))

let test_manager_errors () =
  let manager = Manager.create (fh_catalog ()) in
  (match Manager.open_session manager ~relations:[ "nope"; "Hotel" ] ~strategy:"td" with
  | Error (Manager.Unknown_relation "nope") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_relation");
  (match Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"zz" with
  | Error (Manager.Unknown_strategy "zz") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_strategy");
  (match Manager.ask manager "s99" with
  | Error (Manager.Unknown_session "s99") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_session");
  match
    Manager.resume_session manager ~relations:[ "Flight"; "Hotel" ] (Json.Obj [])
  with
  | Error (Manager.Corrupt_session _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Corrupt_session"

let test_manager_save_resume () =
  let manager = Manager.create (fh_catalog ()) in
  let info =
    expect_ok "open"
      (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"td")
  in
  let id = info.Manager.id in
  (* Answer one question, note the next one, freeze. *)
  let q1 =
    match expect_ok "ask" (Manager.ask manager id) with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let q2 =
    match
      expect_ok "tell" (Manager.tell manager id (label_for fh_goal q1.Engine.signature))
    with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let doc = expect_ok "save" (Manager.save manager id) in
  expect_ok "close" (Manager.close manager id);
  (* Thaw: the in-flight question must be re-presented verbatim, and the
     resumed run must land on the same predicate. *)
  let info2 =
    expect_ok "resume"
      (Manager.resume_session manager ~relations:[ "Flight"; "Hotel" ] doc)
  in
  Alcotest.(check string) "persisted strategy restored" "TD"
    info2.Manager.strategy_name;
  Alcotest.(check bool) "resume hits the universe cache" true
    info2.Manager.cache_hit;
  (match expect_ok "ask2" (Manager.ask manager info2.Manager.id) with
  | Manager.Next q ->
      Alcotest.(check int) "frozen question re-presented" q2.Engine.class_id
        q.Engine.class_id
  | Manager.Finished _ -> Alcotest.fail "lost the in-flight question");
  let outcome =
    drive_manager manager info2.Manager.id
      (expect_ok "ask3" (Manager.ask manager info2.Manager.id))
  in
  Alcotest.check bits_testable "same answer after thaw" fh_goal
    outcome.Engine.predicate

let test_manager_idle_eviction () =
  let now = ref 0. in
  let manager =
    Manager.create ~clock:(fun () -> !now) ~idle_timeout:10. (fh_catalog ())
  in
  let s1 =
    (expect_ok "open1"
       (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"td"))
      .Manager.id
  in
  let s2 =
    (expect_ok "open2"
       (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"bu"))
      .Manager.id
  in
  Alcotest.(check (list string)) "nothing stale yet" [] (Manager.sweep manager);
  now := 5.;
  ignore (expect_ok "touch s1" (Manager.ask manager s1));
  now := 12.;
  Alcotest.(check (list string)) "s2 idle past the timeout" [ s2 ]
    (Manager.sweep manager);
  Alcotest.(check int) "one session left" 1 (Manager.session_count manager);
  (match Manager.ask manager s2 with
  | Error (Manager.Unknown_session _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "evicted session must be gone");
  Alcotest.(check bool) "survivor still answers" true
    (match Manager.ask manager s1 with Ok _ -> true | Error _ -> false)

(* Idle eviction of a session with an in-flight pending question must
   autosave — the same guarantee the CLI's EOF path gives.  Pinned with
   an injected clock: no real time passes. *)
let test_eviction_autosaves_pending () =
  let now = ref 0. in
  let manager =
    Manager.create ~clock:(fun () -> !now) ~idle_timeout:10. (fh_catalog ())
  in
  let id =
    (expect_ok "open"
       (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"td"))
      .Manager.id
  in
  (* Answer one question and leave the next one outstanding. *)
  let q1 =
    match expect_ok "ask" (Manager.ask manager id) with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let q2 =
    match
      expect_ok "tell" (Manager.tell manager id (label_for fh_goal q1.Engine.signature))
    with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  now := 20.;
  Alcotest.(check (list string)) "evicted" [ id ] (Manager.sweep manager);
  let stats = Manager.stats manager in
  Alcotest.(check int) "eviction counted" 1 stats.Manager.evicted;
  Alcotest.(check int) "eviction autosaved" 1 stats.Manager.autosaved;
  Alcotest.(check bool) "unknown id has no autosave" true
    (Manager.evicted_doc manager "no-such-session" = None);
  let doc =
    match Manager.evicted_doc manager id with
    | Some doc -> doc
    | None -> Alcotest.fail "evicted session left no resume document"
  in
  (* Thaw the autosave: the in-flight question survives eviction exactly
     as it survives an explicit save. *)
  let info =
    expect_ok "resume"
      (Manager.resume_session manager ~relations:[ "Flight"; "Hotel" ] doc)
  in
  (match expect_ok "ask2" (Manager.ask manager info.Manager.id) with
  | Manager.Next q ->
      Alcotest.(check int) "pending question survived eviction"
        q2.Engine.class_id q.Engine.class_id
  | Manager.Finished _ -> Alcotest.fail "lost the pending question");
  let outcome =
    drive_manager manager info.Manager.id
      (expect_ok "ask3" (Manager.ask manager info.Manager.id))
  in
  Alcotest.check bits_testable "same θ after evict and thaw" fh_goal
    outcome.Engine.predicate

(* ------------------------- churn broadcast ------------------------- *)

let has_substring ~needle hay =
  let nl = String.length needle in
  let hl = String.length hay in
  let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
  go 0

(* A duplicate row changes no signature, so every open session must
   re-certify transparently: same id, labels kept, pending question
   re-anchored, and the cached universe patched rather than rebuilt. *)
let test_manager_delta_recertify () =
  let manager = Manager.create (fh_catalog ()) in
  let id =
    (expect_ok "open"
       (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"td"))
      .Manager.id
  in
  let q1 =
    match expect_ok "ask" (Manager.ask manager id) with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let q2 =
    match
      expect_ok "tell"
        (Manager.tell manager id (label_for fh_goal q1.Engine.signature))
    with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let dup = (Relation.rows Fixtures.flight).(0) in
  let info =
    expect_ok "delta"
      (Manager.apply_delta manager ~relation:"Flight"
         (Delta.of_lists ~adds:[ dup ] ~removes:[]))
  in
  Alcotest.(check int) "one row added" 1 info.Manager.added;
  Alcotest.(check int) "no rows removed" 0 info.Manager.removed;
  Alcotest.(check (list string))
    "session carried over" [ id ] info.Manager.recertified;
  Alcotest.(check (list (pair string string)))
    "nobody stale" [] info.Manager.stale;
  Alcotest.(check int) "cached universe patched in place" 1
    info.Manager.cache_patched;
  Alcotest.(check int) "nothing evicted" 0 info.Manager.cache_dropped;
  (match expect_ok "ask after churn" (Manager.ask manager id) with
  | Manager.Next q ->
      Alcotest.check bits_testable "pending question survived churn"
        q2.Engine.signature q.Engine.signature
  | Manager.Finished _ -> Alcotest.fail "lost the pending question");
  let outcome =
    drive_manager manager id (expect_ok "ask" (Manager.ask manager id))
  in
  Alcotest.check bits_testable "goal reached across churn" fh_goal
    outcome.Engine.predicate

(* Tiny deterministic pair for retirement scenarios.  The product has
   three classes — {} (twice), {a1=b1} and the join {a1=b1, a2=b2} — and
   the join class is carried by exactly one pair, (TR row 0, TP row 0).
   Its signature is a strict subset of Ω, so it is never implied-certain
   (a full-signature class would be), and deleting TR row (1,10) retires
   it while the other classes survive. *)
let tiny_rel name attrs rows =
  Relation.of_list ~name
    ~schema:
      (Jqi_relational.Schema.of_names ~ty:Jqi_relational.Value.TInt attrs)
    (List.map Tuple.ints rows)

let tiny_r () = tiny_rel "TR" [ "a1"; "a2" ] [ [ 1; 10 ]; [ 2; 20 ] ]
let tiny_p () = tiny_rel "TP" [ "b1"; "b2" ] [ [ 1; 10 ]; [ 2; 21 ] ]

let tiny_catalog () =
  let catalog = Catalog.create () in
  Catalog.add catalog (tiny_r ());
  Catalog.add catalog (tiny_p ());
  catalog

let tiny_join_sig () =
  let omega =
    Jqi_core.Omega.of_schemas
      (Relation.schema (tiny_r ()))
      (Relation.schema (tiny_p ()))
  in
  Sample.signature_of_tuple omega (tiny_r ()) (tiny_p ()) (0, 0)

let sig_json s = Json.List (List.map Json.int (Bits.elements s))

(* Deleting the only joining pair retires a labeled class: the session
   comes back stale with a typed reason, refuses ask/tell, and still
   saves (the labels stay recoverable).  The history is pinned through a
   signature-anchored document, so the scenario is strategy-independent:
   the live session provably carries a label on the class about to
   retire. *)
let test_manager_delta_stale () =
  let manager = Manager.create (tiny_catalog ()) in
  let doc =
    Json.Obj
      [
        ("version", Json.int 2);
        ("strategy", Json.Str "TD");
        ( "examples",
          Json.List
            [
              Json.Obj
                [
                  ("r", Json.int 0);
                  ("p", Json.int 0);
                  ("sig", sig_json (tiny_join_sig ()));
                  ("label", Json.Str "+");
                ];
            ] );
      ]
  in
  let id =
    (expect_ok "resume" (Manager.resume_session manager ~relations:[ "TR"; "TP" ] doc))
      .Manager.id
  in
  let info =
    expect_ok "delta"
      (Manager.apply_delta manager ~relation:"TR"
         (Delta.of_lists ~adds:[] ~removes:[ Tuple.ints [ 1; 10 ] ]))
  in
  Alcotest.(check (list string)) "nobody recertified" []
    info.Manager.recertified;
  (match info.Manager.stale with
  | [ (sid, reason) ] ->
      Alcotest.(check string) "the session is flagged" id sid;
      Alcotest.(check bool) "reason names retirement" true
        (has_substring ~needle:"retired" reason)
  | [] | _ :: _ -> Alcotest.fail "expected exactly one stale session");
  (match Manager.ask manager id with
  | Error (Manager.Stale_label msg) ->
      Alcotest.(check bool) "ask refusal carries the reason" true
        (has_substring ~needle:"stale" msg)
  | Ok _ | Error _ -> Alcotest.fail "stale session must refuse ask");
  (match Manager.tell manager id Sample.Positive with
  | Error (Manager.Stale_label _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "stale session must refuse tell");
  match Manager.save manager id with
  | Ok _ -> ()
  | Error e ->
      Alcotest.fail ("stale session must still save: " ^ Manager.error_message e)

(* Satellite (d): a saved session whose pending question's tuples are
   deleted by a delta must resume as the typed stale_label error, not
   corrupt and not a silent drop — the persisted signature is
   authoritative.  The document freezes an in-flight question on the
   joining class; the same document resumes fine before the delta. *)
let test_resume_stale_pending () =
  let manager = Manager.create (tiny_catalog ()) in
  let doc =
    Json.Obj
      [
        ("version", Json.int 2);
        ("strategy", Json.Str "TD");
        ("examples", Json.List []);
        ( "pending",
          Json.Obj
            [
              ("r", Json.int 0);
              ("p", Json.int 0);
              ("sig", sig_json (tiny_join_sig ()));
            ] );
      ]
  in
  let pre =
    expect_ok "resume pre-delta"
      (Manager.resume_session manager ~relations:[ "TR"; "TP" ] doc)
  in
  (match expect_ok "ask pre-delta" (Manager.ask manager pre.Manager.id) with
  | Manager.Next (q : Engine.question) ->
      Alcotest.(check (list int)) "pending anchored on the joining class"
        (Bits.elements (tiny_join_sig ()))
        (Bits.elements q.Engine.signature)
  | Manager.Finished _ -> Alcotest.fail "frozen question lost pre-delta");
  expect_ok "close" (Manager.close manager pre.Manager.id);
  ignore
    (expect_ok "delta"
       (Manager.apply_delta manager ~relation:"TR"
          (Delta.of_lists ~adds:[] ~removes:[ Tuple.ints [ 1; 10 ] ])));
  match Manager.resume_session manager ~relations:[ "TR"; "TP" ] doc with
  | Error (Manager.Stale_label msg) ->
      Alcotest.(check bool) "names the pending question" true
        (has_substring ~needle:"pending" msg)
  | Ok _ -> Alcotest.fail "resume must surface the retired pending class"
  | Error e ->
      Alcotest.fail
        ("expected stale_label, got: " ^ Manager.error_message e)

(* Churn then idle eviction, with an injected clock: the re-certified
   session autosaves on sweep and thaws against the patched universe —
   no real time passes and no rebuild happens. *)
let test_eviction_after_churn () =
  let now = ref 0. in
  let manager =
    Manager.create ~clock:(fun () -> !now) ~idle_timeout:10. (fh_catalog ())
  in
  let id =
    (expect_ok "open"
       (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy:"td"))
      .Manager.id
  in
  let q1 =
    match expect_ok "ask" (Manager.ask manager id) with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let q2 =
    match
      expect_ok "tell"
        (Manager.tell manager id (label_for fh_goal q1.Engine.signature))
    with
    | Manager.Next q -> q
    | Manager.Finished _ -> Alcotest.fail "finished too early"
  in
  let dup = (Relation.rows Fixtures.flight).(1) in
  let info =
    expect_ok "delta"
      (Manager.apply_delta manager ~relation:"Flight"
         (Delta.of_lists ~adds:[ dup ] ~removes:[]))
  in
  Alcotest.(check (list string)) "carried over before eviction" [ id ]
    info.Manager.recertified;
  now := 20.;
  Alcotest.(check (list string)) "evicted on schedule" [ id ]
    (Manager.sweep manager);
  let doc =
    match Manager.evicted_doc manager id with
    | Some doc -> doc
    | None -> Alcotest.fail "churned session left no autosave"
  in
  let info2 =
    expect_ok "resume"
      (Manager.resume_session manager ~relations:[ "Flight"; "Hotel" ] doc)
  in
  Alcotest.(check bool) "thaw hits the patched universe cache" true
    info2.Manager.cache_hit;
  (match expect_ok "ask" (Manager.ask manager info2.Manager.id) with
  | Manager.Next q ->
      Alcotest.check bits_testable "pending survived churn + eviction"
        q2.Engine.signature q.Engine.signature
  | Manager.Finished _ -> Alcotest.fail "lost the pending question");
  let outcome =
    drive_manager manager info2.Manager.id
      (expect_ok "ask" (Manager.ask manager info2.Manager.id))
  in
  Alcotest.check bits_testable "same θ after churn, evict and thaw" fh_goal
    outcome.Engine.predicate

(* ----------------------------- protocol ---------------------------- *)

let gen_str = QCheck.Gen.(string_size ~gen:printable (int_range 0 10))

let gen_label = QCheck.Gen.map Sample.label_of_bool QCheck.Gen.bool

let gen_doc =
  QCheck.Gen.(
    oneof
      [
        return Json.Null;
        map Json.int (int_bound 100);
        map (fun s -> Json.Str s) gen_str;
        return (Json.Obj [ ("version", Json.int 2); ("examples", Json.List []) ]);
      ])

let gen_request =
  QCheck.Gen.(
    oneof
      [
        map (fun vs -> P.Hello { versions = vs })
          (list_size (int_range 0 4) (int_bound 6));
        map2 (fun name path -> P.Load { name; path }) (option gen_str) gen_str;
        map3
          (fun r p strategy -> P.Open_session { r; p; strategy })
          gen_str gen_str gen_str;
        map (fun session -> P.Ask { session }) gen_str;
        map2 (fun session label -> P.Tell { session; label }) gen_str gen_label;
        map (fun session -> P.Save { session }) gen_str;
        map3
          (fun (r, p) strategy doc -> P.Resume { r; p; strategy; doc })
          (pair gen_str gen_str) (option gen_str) gen_doc;
        map2
          (fun relations strategy -> P.Open_kary { relations; strategy })
          (list_size (int_range 0 4) gen_str)
          gen_str;
        map3
          (fun relations strategy doc ->
            P.Resume_kary { relations; strategy; doc })
          (list_size (int_range 0 4) gen_str)
          (option gen_str) gen_doc;
        map3
          (fun relation insert delete -> P.Delta { relation; insert; delete })
          gen_str
          (list_size (int_range 0 3) (list_size (int_range 0 3) gen_str))
          (list_size (int_range 0 3) (list_size (int_range 0 3) gen_str));
        map (fun session -> P.Close { session }) gen_str;
        return P.Stats;
      ])

let gen_response =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> P.Welcome { version = v }) (int_bound 9);
        map2 (fun name rows -> P.Loaded { name; rows }) gen_str (int_bound 999);
        map3
          (fun session classes (omega_width, cache_hit) ->
            P.Opened { session; classes; omega_width; cache_hit })
          gen_str (int_bound 99)
          (pair (int_bound 99) bool);
        map3
          (fun (q_session, q_class) (q_r_row, q_p_row) (q_r_cells, q_p_cells) ->
            P.Question
              { q_session; q_class; q_r_row; q_p_row; q_r_cells; q_p_cells })
          (pair gen_str (int_bound 99))
          (pair (int_bound 99) (int_bound 99))
          (pair
             (list_size (int_range 0 3) gen_str)
             (list_size (int_range 0 3) gen_str));
        map3
          (fun session predicate n_interactions ->
            P.Done { session; predicate; n_interactions })
          gen_str
          (list_size (int_range 0 3) (pair gen_str gen_str))
          (int_bound 99);
        map3
          (fun (k_session, k_class) k_rows k_cells ->
            P.Kquestion { k_session; k_class; k_rows; k_cells })
          (pair gen_str (int_bound 99))
          (list_size (int_range 0 4) (int_bound 99))
          (list_size (int_range 0 4) (list_size (int_range 0 3) gen_str));
        map2 (fun session doc -> P.Saved { session; doc }) gen_str gen_doc;
        map3
          (fun (d_relation, (d_added, d_removed))
               (d_cache_patched, d_cache_dropped) (d_recertified, d_stale) ->
            P.Delta_applied
              {
                d_relation;
                d_added;
                d_removed;
                d_cache_patched;
                d_cache_dropped;
                d_recertified;
                d_stale;
              })
          (pair gen_str (pair (int_bound 99) (int_bound 99)))
          (pair (int_bound 99) (int_bound 99))
          (pair
             (list_size (int_range 0 3) gen_str)
             (list_size (int_range 0 3) (pair gen_str gen_str)));
        map (fun session -> P.Closed { session }) gen_str;
        map3
          (fun sessions relations (cache_hits, cache_misses, top_heap_words) ->
            P.Stats_reply
              { sessions; relations; cache_hits; cache_misses; top_heap_words })
          (int_bound 99)
          (list_size (int_range 0 3) gen_str)
          (triple (int_bound 99) (int_bound 99) (option (int_bound 99)));
        map2 (fun code message -> P.Error { code; message }) gen_str gen_str;
      ])

let qcheck_request_roundtrip =
  QCheck.Test.make ~name:"decode ∘ encode = id for request frames" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (int_bound 10_000) gen_request)
       ~print:(fun (id, r) -> P.encode_request ~id r))
    (fun (id, request) ->
      match P.decode_request (P.encode_request ~id request) with
      | Ok (id', request') -> id = id' && P.equal_request request request'
      | Error _ -> false)

let qcheck_response_roundtrip =
  QCheck.Test.make ~name:"decode ∘ encode = id for response frames" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (int_bound 10_000) gen_response)
       ~print:(fun (id, r) -> P.encode_response ~id r))
    (fun (id, response) ->
      match P.decode_response (P.encode_response ~id response) with
      | Ok (id', response') -> id = id' && P.equal_response response response'
      | Error _ -> false)

let qcheck_decoder_total =
  QCheck.Test.make ~name:"request decoder never raises on garbage" ~count:500
    QCheck.(string_gen QCheck.Gen.printable)
    (fun line ->
      match P.decode_request line with
      | Ok _ | Error _ -> true)

let expect_error_frame what expected_code expected_id line =
  match P.decode_request line with
  | Error (id, P.Error { code; _ }) ->
      Alcotest.(check string) (what ^ ": code") expected_code code;
      Alcotest.(check int) (what ^ ": id echoed") expected_id id
  | Error (_, _) | Ok _ -> Alcotest.fail (what ^ ": expected an error frame")

let test_decode_garbage () =
  expect_error_frame "empty" "parse" 0 "";
  expect_error_frame "not json" "parse" 0 "nonsense";
  expect_error_frame "truncated" "parse" 0 "{\"v\":1,\"id\":3";
  expect_error_frame "non-object" "parse" 0 "[1,2,3]";
  expect_error_frame "wrong version" "version" 7 "{\"v\":2,\"id\":7,\"op\":\"stats\"}";
  expect_error_frame "missing version" "version" 7 "{\"id\":7,\"op\":\"stats\"}";
  expect_error_frame "missing op" "malformed" 7 "{\"v\":1,\"id\":7}";
  expect_error_frame "missing field" "malformed" 7
    "{\"v\":1,\"id\":7,\"op\":\"tell\",\"session\":\"s1\"}";
  expect_error_frame "bad label" "malformed" 7
    "{\"v\":1,\"id\":7,\"op\":\"tell\",\"session\":\"s1\",\"label\":\"maybe\"}";
  expect_error_frame "unknown op" "unsupported" 7 "{\"v\":1,\"id\":7,\"op\":\"zap\"}";
  expect_error_frame "delta missing relation" "malformed" 7
    "{\"v\":1,\"id\":7,\"op\":\"delta\",\"insert\":[]}";
  expect_error_frame "delta rows not lists" "malformed" 7
    "{\"v\":1,\"id\":7,\"op\":\"delta\",\"relation\":\"R\",\"insert\":3}";
  (* Omitted row lists are empty batch sides, not errors. *)
  match
    P.decode_request "{\"v\":1,\"id\":7,\"op\":\"delta\",\"relation\":\"R\"}"
  with
  | Ok (7, P.Delta { relation = "R"; insert = []; delete = [] }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "bare delta frame must decode empty"

let test_negotiate () =
  Alcotest.(check (option int)) "current version" (Some 1) (P.negotiate [ 1 ]);
  Alcotest.(check (option int)) "picks the newest common" (Some 1)
    (P.negotiate [ 0; 1; 7 ]);
  Alcotest.(check (option int)) "nothing in common" None (P.negotiate [ 99 ]);
  Alcotest.(check (option int)) "empty offer" None (P.negotiate [])

(* ----------------------------- service ----------------------------- *)

let with_temp_csvs f =
  let r_path = Filename.temp_file "jqi_flight" ".csv" in
  let p_path = Filename.temp_file "jqi_hotel" ".csv" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove r_path;
      Sys.remove p_path)
    (fun () ->
      Csv.save_relation r_path Fixtures.flight;
      Csv.save_relation p_path Fixtures.hotel;
      f r_path p_path)

let test_service_full_flight () =
  with_temp_csvs (fun r_path p_path ->
      let manager = Manager.create (Catalog.create ()) in
      let handle = Service.handle manager in
      (match handle (P.Hello { versions = [ 1; 9 ] }) with
      | P.Welcome { version = 1 } -> ()
      | _ -> Alcotest.fail "hello");
      (match handle (P.Load { name = Some "flight"; path = r_path }) with
      | P.Loaded { name = "flight"; rows = 4 } -> ()
      | _ -> Alcotest.fail "load flight");
      (match handle (P.Load { name = Some "hotel"; path = p_path }) with
      | P.Loaded { name = "hotel"; rows = 3 } -> ()
      | _ -> Alcotest.fail "load hotel");
      let session =
        match
          handle (P.Open_session { r = "flight"; p = "hotel"; strategy = "td" })
        with
        | P.Opened { session; cache_hit = false; _ } -> session
        | _ -> Alcotest.fail "open"
      in
      let questions = ref 0 in
      let rec loop resp =
        match resp with
        | P.Question { q_r_row; q_p_row; q_r_cells; q_p_cells; _ } ->
            incr questions;
            Alcotest.(check int) "flight cells rendered" 3
              (List.length q_r_cells);
            Alcotest.(check int) "hotel cells rendered" 2
              (List.length q_p_cells);
            let s =
              Sample.signature_of_tuple fh_omega Fixtures.flight Fixtures.hotel
                (q_r_row, q_p_row)
            in
            loop (handle (P.Tell { session; label = label_for fh_goal s }))
        | P.Done { predicate; n_interactions; _ } ->
            Alcotest.(check (list (pair string string)))
              "predicate named" [ ("To", "City") ] predicate;
            Alcotest.(check int) "interaction count" !questions n_interactions
        | _ -> Alcotest.fail "unexpected turn"
      in
      loop (handle (P.Ask { session }));
      (* Re-opening the same CSVs must hit the universe cache. *)
      (match
         handle (P.Open_session { r = "flight"; p = "hotel"; strategy = "bu" })
       with
      | P.Opened { cache_hit = true; _ } -> ()
      | _ -> Alcotest.fail "second open should hit the cache");
      match handle P.Stats with
      | P.Stats_reply
          { sessions = 2; relations; cache_hits = 1; cache_misses = 1; _ } ->
          Alcotest.(check (list string)) "catalog names" [ "flight"; "hotel" ]
            relations
      | _ -> Alcotest.fail "stats")

(* Three-relation chain over the wire: open_kary answers with kquestion
   frames (one row + one cell list per relation), and the closing done
   frame qualifies attribute names as "rel.attr".  Binary frames are
   untouched by any of this — sessions over exactly two relations still
   answer with the classic question frame (test_service_full_flight). *)
let test_service_kary_flight () =
  let rel name attrs rows =
    Relation.of_list ~name
      ~schema:(Jqi_relational.Schema.of_names ~ty:Jqi_relational.Value.TInt attrs)
      (List.map Jqi_relational.Tuple.ints rows)
  in
  let a = rel "a" [ "ak" ] [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let b = rel "b" [ "bk"; "bv" ] [ [ 1; 10 ]; [ 2; 20 ]; [ 9; 10 ] ] in
  let c = rel "c" [ "ck" ] [ [ 10 ]; [ 20 ]; [ 30 ] ] in
  let catalog = Catalog.create () in
  List.iter (Catalog.add catalog) [ a; b; c ];
  let manager = Manager.create catalog in
  let handle = Service.handle manager in
  (* The labelling side runs the same byte-identical universe build the
     server does, so the kquestion's class index addresses it directly. *)
  let u = Jqi_core.Universe.build [ a; b; c ] in
  let goal =
    Jqi_core.Omega.of_names_kary (Jqi_core.Universe.omega u)
      [ ("a.ak", "b.bk"); ("b.bv", "c.ck") ]
  in
  let session =
    match
      handle (P.Open_kary { relations = [ "a"; "b"; "c" ]; strategy = "td" })
    with
    | P.Opened { session; cache_hit = false; _ } -> session
    | _ -> Alcotest.fail "open_kary"
  in
  let questions = ref 0 in
  let rec loop resp =
    match resp with
    | P.Kquestion { k_session; k_class; k_rows; k_cells } ->
        incr questions;
        Alcotest.(check string) "session echoed" session k_session;
        Alcotest.(check int) "one row per relation" 3 (List.length k_rows);
        Alcotest.(check int) "one cell list per relation" 3
          (List.length k_cells);
        Alcotest.(check (list int)) "cell list arities" [ 1; 2; 1 ]
          (List.map List.length k_cells);
        let label = label_for goal (Jqi_core.Universe.signature u k_class) in
        loop (handle (P.Tell { session; label }))
    | P.Done { predicate; n_interactions; _ } ->
        Alcotest.(check (list (pair string string)))
          "predicate qualified as rel.attr"
          [ ("a.ak", "b.bk"); ("b.bv", "c.ck") ]
          predicate;
        Alcotest.(check int) "interaction count" !questions n_interactions
    | _ -> Alcotest.fail "unexpected k-ary turn"
  in
  loop (handle (P.Ask { session }));
  (* A second open over the same relation list hits the universe cache. *)
  (match
     handle (P.Open_kary { relations = [ "a"; "b"; "c" ]; strategy = "bu" })
   with
  | P.Opened { cache_hit = true; _ } -> ()
  | _ -> Alcotest.fail "second open_kary should hit the cache");
  (* Save then resume the session over the wire, k-ary ops throughout. *)
  let doc =
    match handle (P.Save { session }) with
    | P.Saved { doc; _ } -> doc
    | _ -> Alcotest.fail "save"
  in
  match
    handle
      (P.Resume_kary
         { relations = [ "a"; "b"; "c" ]; strategy = None; doc })
  with
  | P.Opened { session = _; _ } -> ()
  | _ -> Alcotest.fail "resume_kary"

let test_service_kary_errors () =
  let catalog = fh_catalog () in
  let manager = Manager.create catalog in
  let handle = Service.handle manager in
  (match handle (P.Open_kary { relations = [ "Flight" ]; strategy = "td" }) with
  | P.Error { code = "invalid"; _ } -> ()
  | _ -> Alcotest.fail "fewer than two relations");
  (match
     handle
       (P.Open_kary { relations = [ "Flight"; "zz"; "Hotel" ]; strategy = "td" })
   with
  | P.Error { code = "unknown_relation"; _ } -> ()
  | _ -> Alcotest.fail "unknown relation in the list");
  match
    handle
      (P.Resume_kary
         {
           relations = [ "Flight"; "Hotel" ];
           strategy = None;
           doc = Json.Obj [];
         })
  with
  | P.Error { code = "corrupt_session"; _ } -> ()
  | _ -> Alcotest.fail "corrupt k-ary resume"

(* The delta frame over the wire: cells parse under the loaded schema,
   the cache reports patch work, and open sessions ride through. *)
let test_service_delta () =
  with_temp_csvs (fun r_path p_path ->
      let manager = Manager.create (Catalog.create ()) in
      let handle = Service.handle manager in
      (match handle (P.Load { name = Some "flight"; path = r_path }) with
      | P.Loaded _ -> ()
      | _ -> Alcotest.fail "load flight");
      (match handle (P.Load { name = Some "hotel"; path = p_path }) with
      | P.Loaded _ -> ()
      | _ -> Alcotest.fail "load hotel");
      let session =
        match
          handle (P.Open_session { r = "flight"; p = "hotel"; strategy = "td" })
        with
        | P.Opened { session; _ } -> session
        | _ -> Alcotest.fail "open"
      in
      let row0 =
        List.map Jqi_relational.Value.to_string
          (Tuple.to_list (Relation.rows Fixtures.flight).(0))
      in
      (match
         handle (P.Delta { relation = "flight"; insert = [ row0 ]; delete = [] })
       with
      | P.Delta_applied
          { d_relation; d_added; d_removed; d_recertified; d_stale; _ } ->
          Alcotest.(check string) "relation echoed" "flight" d_relation;
          Alcotest.(check int) "added" 1 d_added;
          Alcotest.(check int) "removed" 0 d_removed;
          Alcotest.(check (list string))
            "open session re-certified" [ session ] d_recertified;
          Alcotest.(check (list (pair string string)))
            "nobody stale" [] d_stale
      | _ -> Alcotest.fail "delta_applied expected");
      (* Deleting the row we just inserted round-trips the relation. *)
      (match
         handle (P.Delta { relation = "flight"; insert = []; delete = [ row0 ] })
       with
      | P.Delta_applied { d_removed; _ } ->
          Alcotest.(check int) "removed" 1 d_removed
      | _ -> Alcotest.fail "delete delta_applied expected");
      (match
         handle
           (P.Delta { relation = "flight"; insert = [ [ "x" ] ]; delete = [] })
       with
      | P.Error { code = "bad_delta"; _ } -> ()
      | _ -> Alcotest.fail "arity mismatch must be bad_delta");
      (match
         handle
           (P.Delta
              { relation = "flight"; insert = []; delete = [ [ "z"; "z"; "z" ] ] })
       with
      | P.Error { code = "bad_delta"; _ } -> ()
      | _ -> Alcotest.fail "unmatched remove must be bad_delta");
      (match handle (P.Delta { relation = "nope"; insert = []; delete = [] }) with
      | P.Error { code = "unknown_relation"; _ } -> ()
      | _ -> Alcotest.fail "unknown relation");
      (* The session still serves questions after the churn. *)
      match handle (P.Ask { session }) with
      | P.Question _ -> ()
      | _ -> Alcotest.fail "session must answer after churn")

let test_service_errors () =
  let manager = Manager.create (fh_catalog ()) in
  let handle = Service.handle manager in
  (match handle (P.Hello { versions = [ 99 ] }) with
  | P.Error { code = "version"; _ } -> ()
  | _ -> Alcotest.fail "bad hello");
  (match handle (P.Load { name = None; path = "/does/not/exist.csv" }) with
  | P.Error { code = "io"; _ } -> ()
  | _ -> Alcotest.fail "missing file");
  (match handle (P.Open_session { r = "zz"; p = "Hotel"; strategy = "td" }) with
  | P.Error { code = "unknown_relation"; _ } -> ()
  | _ -> Alcotest.fail "unknown relation");
  (match handle (P.Ask { session = "s9" }) with
  | P.Error { code = "unknown_session"; _ } -> ()
  | _ -> Alcotest.fail "unknown session");
  (match
     handle
       (P.Resume
          { r = "Flight"; p = "Hotel"; strategy = None; doc = Json.Obj [] })
   with
  | P.Error { code = "corrupt_session"; _ } -> ()
  | _ -> Alcotest.fail "corrupt resume");
  (* handle_line turns an undecodable line into an ok:false frame. *)
  let reply = Service.handle_line manager "{\"v\":1,\"id\":5,\"op\":\"zap\"}" in
  match P.decode_response reply with
  | Ok (5, P.Error { code = "unsupported"; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected an encoded error frame"

(* Binary is k = 2 on the wire too: over two relations, open_kary and
   resume_kary answer with byte-identical opened, question and done frames
   to open and resume (fresh managers number sessions alike), save still
   writes a v2 document, and both frame pairs share one cache entry. *)
let test_service_kary_frames_at_k2 () =
  let transcript ~kary =
    let manager = Manager.create (fh_catalog ()) in
    let handle = Service.handle manager in
    let frames = ref [] in
    let call req =
      let resp = handle req in
      frames := P.encode_response ~id:0 resp :: !frames;
      resp
    in
    let opened = function
      | P.Opened { session; _ } -> session
      | _ -> Alcotest.fail "expected an opened frame"
    in
    let relations = [ "Flight"; "Hotel" ] in
    let session =
      opened
        (call
           (if kary then P.Open_kary { relations; strategy = "td" }
            else P.Open_session { r = "Flight"; p = "Hotel"; strategy = "td" }))
    in
    let tell session = function
      | P.Question { q_r_row; q_p_row; _ } ->
          let s =
            Sample.signature_of_tuple fh_omega Fixtures.flight Fixtures.hotel
              (q_r_row, q_p_row)
          in
          call (P.Tell { session; label = label_for fh_goal s })
      | _ -> Alcotest.fail "expected a question frame"
    in
    ignore (tell session (call (P.Ask { session })));
    let doc =
      match handle (P.Save { session }) with
      | P.Saved { doc; _ } -> doc
      | _ -> Alcotest.fail "save"
    in
    Alcotest.(check (option int))
      "binary documents are v3" (Some 3)
      (Option.bind (Json.member "version" doc) Json.to_int);
    let session =
      opened
        (call
           (if kary then P.Resume_kary { relations; strategy = None; doc }
            else P.Resume { r = "Flight"; p = "Hotel"; strategy = None; doc }))
    in
    let rec drive = function
      | P.Question _ as q -> drive (tell session q)
      | P.Done _ -> ()
      | _ -> Alcotest.fail "unexpected turn"
    in
    drive (call (P.Ask { session }));
    (manager, List.rev !frames)
  in
  let manager, binary = transcript ~kary:false in
  let _, kary = transcript ~kary:true in
  Alcotest.(check (list string)) "same frames" binary kary;
  (match
     Service.handle manager
       (P.Open_kary { relations = [ "Flight"; "Hotel" ]; strategy = "bu" })
   with
  | P.Opened { cache_hit = true; _ } -> ()
  | _ -> Alcotest.fail "open_kary should hit the binary cache entry");
  Alcotest.(check (pair int int))
    "one cache entry: (hits, misses)" (2, 1)
    (Catalog.stats (Manager.catalog manager))

(* A stats reply from a server that predates [top_heap_words] still
   decodes, with the field [None]; a current reply carries it. *)
let test_stats_reply_heap_field_optional () =
  let old_frame =
    {|{"id":3,"ok":true,"op":"stats","sessions":1,"relations":["r"],"cache_hits":2,"cache_misses":1}|}
  in
  (match P.decode_response old_frame with
  | Ok (3, P.Stats_reply { sessions = 1; top_heap_words = None; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "older stats reply rejected");
  match Service.handle (Manager.create (Catalog.create ())) P.Stats with
  | P.Stats_reply { top_heap_words = Some w; _ } ->
      Alcotest.(check bool) "positive heap peak" true (w > 0)
  | _ -> Alcotest.fail "stats reply without top_heap_words"

(* The reported heap peak counts allocation on Pool worker domains, as
   the listener runs requests there.  The runtime's peak is taken over
   the heap words of all domains together, so a job that builds and
   keeps a list 2M words larger than the process's peak so far must
   raise it, as read from the main domain while the worker is alive.
   The margin of 1M words allows for allocation the worker's runtime
   has not yet reported. *)
let test_stats_heap_peak_counts_workers () =
  let module Pool = Jqi_server.Pool in
  let manager = Manager.create (Catalog.create ()) in
  let top () =
    match Service.handle manager P.Stats with
    | P.Stats_reply { top_heap_words = Some w; _ } -> w
    | _ -> Alcotest.fail "stats reply without top_heap_words"
  in
  let before = top () in
  (* A list cell is 3 words. *)
  let cells = (before + 2_000_000) / 3 in
  let pool = Pool.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      match Pool.submit pool (fun () -> List.init cells Fun.id) with
      | Pool.Shed -> Alcotest.fail "job shed"
      | Pool.Done kept ->
          let grown = top () - before in
          Alcotest.(check bool)
            (Printf.sprintf "worker allocation counted (%d words over %d)" grown
               before)
            true (grown >= 1_000_000);
          ignore (Sys.opaque_identity kept))

(* A paged relation over an in-memory array that counts the rows read
   through [iter_rows] and [get_row] — the scans a fingerprint makes.
   [coded] (the universe builder's path) and [apply_delta] are served
   from the array without counting. *)
let counting_relation reads rel =
  let module B = Relation.Backend in
  let module Dict = Jqi_relational.Dict in
  let rec backend rows =
    let dict = Dict.create () in
    let values = Jqi_util.Vec.create () in
    let codes =
      Array.map
        (fun row ->
          Array.map
            (fun v ->
              let c = Dict.code dict v in
              if Int.equal c (Jqi_util.Vec.length values) then
                Jqi_util.Vec.push values v;
              c)
            row)
        rows
    in
    {
      B.n_rows = Array.length rows;
      get_row =
        (fun i ->
          incr reads;
          rows.(i));
      iter_rows =
        (fun f ->
          Array.iteri
            (fun i row ->
              incr reads;
              f i row)
            rows);
      coded =
        {
          B.distinct = Jqi_util.Vec.length values;
          value = Jqi_util.Vec.get values;
          iter_codes =
            (fun f -> Array.iteri (fun i c -> f i (Array.copy c)) codes);
        };
      describe = "counting:" ^ Relation.name rel;
      apply_delta =
        (fun ~adds ~removed ->
          let kept =
            List.filteri
              (fun i _ -> not (Array.mem i removed))
              (Array.to_list rows)
          in
          backend (Array.append (Array.of_list kept) adds));
    }
  in
  Relation.of_paged ~name:(Relation.name rel) ~schema:(Relation.schema rel)
    (backend (Relation.rows rel))

let counting_manager reads =
  let catalog = Catalog.create () in
  Catalog.add catalog (counting_relation reads Fixtures.flight);
  Catalog.add catalog (counting_relation reads Fixtures.hotel);
  Manager.create catalog

let open_fh manager =
  ignore
    (expect_ok "open"
       (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ]
          ~strategy:"td"))

(* Each relation version is fingerprinted once: a repeat open over the
   same pair finds both fingerprints in the catalog and reads no rows. *)
let test_repeat_open_reads_no_rows () =
  let reads = ref 0 in
  let manager = counting_manager reads in
  open_fh manager;
  Alcotest.(check bool) "the first open fingerprints both" true (!reads > 0);
  reads := 0;
  open_fh manager;
  Alcotest.(check int) "rows read by a repeat open" 0 !reads

(* The delta hashes the post-delta relation once and stores it, so the
   re-certification broadcast reads no rows per session. *)
let test_delta_reads_independent_of_sessions () =
  let delta_reads sessions =
    let reads = ref 0 in
    let manager = counting_manager reads in
    for _ = 1 to sessions do
      open_fh manager
    done;
    reads := 0;
    let info =
      expect_ok "delta"
        (Manager.apply_delta manager ~relation:"Flight"
           (Delta.of_lists ~adds:[ (Relation.rows Fixtures.flight).(0) ]
              ~removes:[]))
    in
    Alcotest.(check int)
      (Printf.sprintf "%d sessions re-certified" sessions)
      sessions
      (List.length info.Manager.recertified);
    !reads
  in
  Alcotest.(check int) "rows read by a delta: 8 sessions vs 1"
    (delta_reads 1) (delta_reads 8)

(* A delta resolves its removes in one scan that stops at the last
   claimed row and writes the relation once.  The post-delta
   fingerprint is derived from the pre-delta one and the rows that scan
   read, and patching the cached universe reads no rows, so a 2-add +
   2-remove delta reads (last claimed index + 1) rows and an
   insert-only delta reads none. *)
let test_delta_reads_one_scan () =
  let reads = ref 0 in
  let catalog = Catalog.create () in
  Catalog.add catalog (counting_relation reads Fixtures.flight);
  Catalog.add catalog (counting_relation reads Fixtures.hotel);
  ignore (Catalog.universe catalog [ "Flight"; "Hotel" ]);
  let rows = Relation.rows Fixtures.flight in
  let d =
    Delta.of_lists
      ~adds:
        [
          Jqi_relational.Tuple.strs [ "Lille"; "Paris"; "AF" ];
          Jqi_relational.Tuple.strs [ "NYC"; "Lille"; "AA" ];
        ]
      ~removes:[ rows.(1); rows.(0) ]
  in
  let mem = Relation.apply_delta Fixtures.flight d in
  let last_claimed = mem.Relation.removed.(1) in
  Alcotest.(check int) "the scan stops before the last row" 1 last_claimed;
  reads := 0;
  match Catalog.apply_delta catalog ~name:"Flight" d with
  | None -> Alcotest.fail "Flight left the catalog"
  | Some churn ->
      Alcotest.(check int) "cached universe patched" 1 churn.Catalog.patched;
      Alcotest.(check int) "rows read by the delta" (last_claimed + 1) !reads;
      Alcotest.(check string) "derived fingerprint = fresh fingerprint"
        (Relation.fingerprint mem.Relation.after)
        churn.Catalog.new_fp;
      reads := 0;
      let insert =
        Delta.of_lists
          ~adds:[ Jqi_relational.Tuple.strs [ "Paris"; "NYC"; "DL" ] ]
          ~removes:[]
      in
      (match Catalog.apply_delta catalog ~name:"Flight" insert with
      | None -> Alcotest.fail "Flight left the catalog"
      | Some churn ->
          Alcotest.(check int) "insert-only: cached universe patched" 1
            churn.Catalog.patched);
      Alcotest.(check int) "rows read by an insert-only delta" 0 !reads

let suite =
  [
    Alcotest.test_case "catalog cache" `Quick test_catalog_cache;
    Alcotest.test_case "catalog names" `Quick test_catalog_names;
    Alcotest.test_case "relation fingerprints" `Quick test_fingerprint;
    Alcotest.test_case "manager lifecycle" `Quick test_manager_lifecycle;
    Alcotest.test_case "manager errors" `Quick test_manager_errors;
    Alcotest.test_case "manager save/resume" `Quick test_manager_save_resume;
    Alcotest.test_case "manager idle eviction" `Quick test_manager_idle_eviction;
    Alcotest.test_case "eviction autosaves a pending question" `Quick
      test_eviction_autosaves_pending;
    Alcotest.test_case "delta re-certifies open sessions" `Quick
      test_manager_delta_recertify;
    Alcotest.test_case "delta flags contradicted sessions stale" `Quick
      test_manager_delta_stale;
    Alcotest.test_case "resume of a deleted pending question is stale_label"
      `Quick test_resume_stale_pending;
    Alcotest.test_case "eviction after churn still autosaves" `Quick
      test_eviction_after_churn;
    QCheck_alcotest.to_alcotest qcheck_request_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_response_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decoder_total;
    Alcotest.test_case "decoder yields error frames" `Quick test_decode_garbage;
    Alcotest.test_case "version negotiation" `Quick test_negotiate;
    Alcotest.test_case "service full session" `Quick test_service_full_flight;
    Alcotest.test_case "service k-ary session" `Quick test_service_kary_flight;
    Alcotest.test_case "service k-ary error frames" `Quick
      test_service_kary_errors;
    Alcotest.test_case "service delta frames" `Quick test_service_delta;
    Alcotest.test_case "service error frames" `Quick test_service_errors;
    Alcotest.test_case "open_kary/resume_kary frames at k = 2" `Quick
      test_service_kary_frames_at_k2;
    Alcotest.test_case "stats reply: top_heap_words is optional" `Quick
      test_stats_reply_heap_field_optional;
    Alcotest.test_case "stats reply: heap peak counts Pool workers" `Quick
      test_stats_heap_peak_counts_workers;
    Alcotest.test_case "repeat open reads no rows" `Quick
      test_repeat_open_reads_no_rows;
    Alcotest.test_case "delta reads are independent of live sessions" `Quick
      test_delta_reads_independent_of_sessions;
    Alcotest.test_case "delta reads one resolution scan" `Quick
      test_delta_reads_one_scan;
  ]
