(* JSON substrate and session persistence. *)

open Fixtures
module Json = Jqi_util.Json
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Sample = Jqi_core.Sample
module Session = Jqi_core.Session

let json_testable =
  Alcotest.testable
    (fun ppf j -> Fmt.string ppf (Json.to_string j))
    ( = )

let roundtrip j = Json.of_string (Json.to_string j)

let test_scalars () =
  List.iter
    (fun j -> Alcotest.check json_testable "roundtrip" j (roundtrip j))
    [
      Json.Null; Json.Bool true; Json.Bool false; Json.int 0; Json.int (-42);
      Json.Num 2.5; Json.Str ""; Json.Str "plain";
      Json.Str "esc \" \\ \n \t chars";
    ]

let test_structures () =
  let j =
    Json.Obj
      [
        ("list", Json.List [ Json.int 1; Json.Str "two"; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj [] ]) ]);
        ("empty", Json.List []);
      ]
  in
  Alcotest.check json_testable "roundtrip" j (roundtrip j)

let test_parse_whitespace_and_escapes () =
  let j = Json.of_string " { \"a\" : [ 1 , true , \"x\\u0041\" ] } " in
  match Json.member "a" j with
  | Some (Json.List [ n; Json.Bool true; Json.Str "xA" ]) ->
      Alcotest.(check (option int)) "int" (Some 1) (Json.to_int n)
  | _ -> Alcotest.fail "parse shape wrong"

let test_parse_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try ignore (Json.of_string s); false with Json.Parse_error _ -> true))
    [ ""; "{"; "[1,"; "\"open"; "{\"a\" 1}"; "nul"; "[] trailing"; "{\"a\":}" ]

let test_member_to_int () =
  let j = Json.Obj [ ("x", Json.int 3); ("y", Json.Num 2.5) ] in
  Alcotest.(check (option int)) "x" (Some 3)
    (Option.bind (Json.member "x" j) Json.to_int);
  Alcotest.(check (option int)) "y not integral" None
    (Option.bind (Json.member "y" j) Json.to_int);
  Alcotest.(check bool) "missing" true (Json.member "z" j = None)

(* ------------------------------ sessions --------------------------- *)

let session_state () =
  let st = State.create universe0 in
  State.label st (class0 (2, 2)) Sample.Positive;
  State.label st (class0 (1, 3)) Sample.Negative;
  st

let test_session_roundtrip () =
  let st = session_state () in
  let reloaded = Session.of_json universe0 (Session.to_json universe0 st) in
  Alcotest.check bits_testable "same T(S+)" (State.tpos st) (State.tpos reloaded);
  Alcotest.(check int) "same interactions" (State.n_interactions st)
    (State.n_interactions reloaded);
  Alcotest.(check (list int)) "same informative set"
    (State.informative_classes st)
    (State.informative_classes reloaded)

let test_session_file_roundtrip () =
  let st = session_state () in
  let path = Filename.temp_file "jqi_session" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Session.save path universe0 st;
      let reloaded = Session.load path universe0 in
      Alcotest.check bits_testable "same T(S+)" (State.tpos st)
        (State.tpos reloaded))

let test_session_resume_and_finish () =
  (* Save mid-session, reload, finish the inference: the final answer must
     match an uninterrupted run. *)
  let goal = pred0 [ (0, 0); (1, 2) ] in
  let oracle = Jqi_core.Oracle.honest ~goal in
  let full =
    Jqi_core.Inference.run universe0 Jqi_core.Strategy.bu oracle
  in
  let st = State.create universe0 in
  (* Two BU steps, then a save/load, then continue with BU. *)
  let step st =
    match Jqi_core.Strategy.choose Jqi_core.Strategy.bu st with
    | Some c -> State.label st c (Jqi_core.Oracle.label oracle universe0 c)
    | None -> ()
  in
  step st;
  step st;
  let resumed = Session.of_json universe0 (Session.to_json universe0 st) in
  let rec finish () =
    match Jqi_core.Strategy.choose Jqi_core.Strategy.bu resumed with
    | Some c ->
        State.label resumed c (Jqi_core.Oracle.label oracle universe0 c);
        finish ()
    | None -> ()
  in
  finish ();
  Alcotest.check bits_testable "same final predicate" full.predicate
    (State.inferred resumed)

let test_session_rejects_garbage () =
  let bad json =
    Alcotest.(check bool) "rejected" true
      (try ignore (Session.of_json universe0 json); false
       with Session.Corrupt _ -> true)
  in
  bad (Json.Obj []);
  bad (Json.Obj [ ("version", Json.int 99); ("examples", Json.List []) ]);
  bad
    (Json.Obj
       [
         ("version", Json.int 1);
         ( "examples",
           Json.List
             [ Json.Obj [ ("r", Json.int 99); ("p", Json.int 0); ("label", Json.Str "+") ] ] );
       ]);
  (* Inconsistent labels: the empty-signature tuple negative after the same
     tuple positive. *)
  bad
    (Json.Obj
       [
         ("version", Json.int 1);
         ( "examples",
           Json.List
             [
               Json.Obj [ ("r", Json.int 2); ("p", Json.int 0); ("label", Json.Str "+") ];
               Json.Obj [ ("r", Json.int 2); ("p", Json.int 0); ("label", Json.Str "-") ];
             ] );
       ])

let test_session_implied_labels_ok () =
  (* A file may contain examples that are implied by earlier ones (e.g. it
     was written by a different strategy): loading is idempotent for
     them. *)
  let st = State.create universe0 in
  State.label st (class0 (3, 1)) Sample.Positive;  (* ∅ positive: all certain *)
  let json = Session.to_json universe0 st in
  (* Append an implied example by rebuilding the JSON with a duplicate. *)
  let with_dup =
    match json with
    | Json.Obj [ (v, ver); (e, Json.List exs) ] ->
        Json.Obj [ (v, ver); (e, Json.List (exs @ exs)) ]
    | _ -> Alcotest.fail "unexpected shape"
  in
  let reloaded = Session.of_json universe0 with_dup in
  Alcotest.check bits_testable "same predicate" (State.tpos st)
    (State.tpos reloaded)

(* --------------------------- schema v2 ----------------------------- *)

let corrupt_message f =
  try
    ignore (f ());
    Alcotest.fail "expected Session.Corrupt"
  with Session.Corrupt msg -> msg

let contains ~needle haystack =
  let n = String.length haystack and nl = String.length needle in
  let rec go i =
    i + nl <= n && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_session_v2_roundtrip () =
  let st = session_state () in
  (* Freeze mid-question: the pending class is any still-informative one. *)
  let cls =
    match State.informative_classes st with
    | c :: _ -> c
    | [] -> Alcotest.fail "fixture state must have informative classes"
  in
  let pending = (Universe.cls universe0 cls).Universe.rep in
  let json = Session.to_json ~strategy:"TD" ~pending universe0 st in
  let loaded = Session.of_json_full universe0 json in
  Alcotest.(check (option string)) "strategy persisted" (Some "TD")
    loaded.Session.strategy;
  Alcotest.(check (option (array int))) "pending persisted" (Some pending)
    loaded.Session.pending;
  Alcotest.check bits_testable "same T(S+)" (State.tpos st)
    (State.tpos loaded.Session.state);
  Alcotest.(check (option int)) "pending maps back to its class" (Some cls)
    (Session.pending_class universe0 loaded.Session.state
       loaded.Session.pending)

let test_session_v1_fixture_loads () =
  (* The checked-in v1 file: examples only — metadata defaults to None. *)
  let loaded = Session.load_full "data/session_v1.json" universe0 in
  Alcotest.(check (option string)) "no strategy in v1" None
    loaded.Session.strategy;
  Alcotest.(check (option (array int))) "no pending in v1" None
    loaded.Session.pending;
  let st = session_state () in
  Alcotest.check bits_testable "replays to the same T(S+)" (State.tpos st)
    (State.tpos loaded.Session.state);
  Alcotest.(check int) "both answers replayed" 2
    (State.n_interactions loaded.Session.state)

let test_session_v2_fixture_loads () =
  (* The checked-in v2 file, written by the last build whose binary
     sessions wrote v2: strategy, pending question and signatures. *)
  let loaded = Session.load_full "data/session_v2.json" universe0 in
  Alcotest.(check (option string)) "strategy" (Some "TD") loaded.Session.strategy;
  Alcotest.(check (option (array int))) "pending rows" (Some [| 2; 2 |])
    loaded.Session.pending;
  let st = session_state () in
  Alcotest.check bits_testable "replays to the same T(S+)" (State.tpos st)
    (State.tpos loaded.Session.state);
  Alcotest.(check int) "both answers replayed" 2
    (State.n_interactions loaded.Session.state);
  Alcotest.(check (option int)) "pending resolves by its signature"
    (Universe.find_class universe0
       (Jqi_core.Tsig.of_tuples omega0 (Relation.row r0 2) (Relation.row p0 2)))
    (Session.pending_class ?signature:loaded.Session.pending_sig universe0
       loaded.Session.state loaded.Session.pending)

let test_session_version_errors () =
  let msg =
    corrupt_message (fun () ->
        Session.of_json universe0
          (Json.Obj
             [ ("version", Json.int 4); ("examples", Json.List []) ]))
  in
  Alcotest.(check bool) "names the bad version" true
    (contains ~needle:"unsupported session version 4" msg);
  Alcotest.(check bool) "names the supported range" true
    (contains ~needle:"1-3" msg);
  let missing = corrupt_message (fun () -> Session.of_json universe0 (Json.Obj [])) in
  Alcotest.(check bool) "missing version named" true
    (contains ~needle:"version" missing)

let test_session_v2_field_validation () =
  let base extra =
    Json.Obj
      (( "version", Json.int 2 )
      :: extra
      @ [ ("examples", Json.List []) ])
  in
  (* Null metadata is tolerated (absent), wrong types are not. *)
  let loaded =
    Session.of_json_full universe0
      (base [ ("strategy", Json.Null); ("pending", Json.Null) ])
  in
  Alcotest.(check (option string)) "null strategy tolerated" None
    loaded.Session.strategy;
  ignore
    (corrupt_message (fun () ->
         Session.of_json_full universe0 (base [ ("strategy", Json.int 5) ])));
  ignore
    (corrupt_message (fun () ->
         Session.of_json_full universe0
           (base [ ("pending", Json.Obj [ ("r", Json.int 0) ]) ])));
  ignore
    (corrupt_message (fun () ->
         Session.of_json_full universe0
           (base
              [ ("pending", Json.Obj [ ("r", Json.int 99); ("p", Json.int 0) ]) ])))

let test_session_stale_pending_dropped () =
  (* A frozen question whose class has since become certain is not
     re-presented. *)
  let st = session_state () in
  let answered = (Universe.cls universe0 (class0 (2, 2))).Universe.rep in
  Alcotest.(check (option int)) "certain class not re-presented" None
    (Session.pending_class universe0 st (Some answered));
  Alcotest.(check (option int)) "no pending, no class" None
    (Session.pending_class universe0 st None)

let test_session_survives_data_growth () =
  (* Appending rows to the relations keeps old row indexes and signatures
     valid, so a saved session resumes against the grown instance: the old
     labels replay, and tuples that only exist in the new data become
     fresh informative classes. *)
  let st = session_state () in
  let json = Session.to_json universe0 st in
  let grown_r =
    Jqi_relational.Relation.with_rows Fixtures.r0
      (Array.append
         (Jqi_relational.Relation.rows Fixtures.r0)
         [| Jqi_relational.Tuple.ints [ 7; 7 ] |])
  in
  let grown = Universe.build [ grown_r; Fixtures.p0 ] in
  let resumed = Session.of_json grown json in
  Alcotest.check bits_testable "same T(S+) on grown instance"
    (State.tpos st) (State.tpos resumed);
  (* The new row (7,7) matches nothing, so its pairs share the ∅ signature
     with (t3,t'1); the grown universe keeps 12 classes but more tuples. *)
  Alcotest.(check int) "more tuples" 15 (Universe.total_tuples grown)

let suite =
  [
    Alcotest.test_case "session survives data growth" `Quick test_session_survives_data_growth;
    Alcotest.test_case "scalar roundtrips" `Quick test_scalars;
    Alcotest.test_case "structure roundtrips" `Quick test_structures;
    Alcotest.test_case "whitespace and escapes" `Quick test_parse_whitespace_and_escapes;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "member/to_int" `Quick test_member_to_int;
    Alcotest.test_case "session roundtrip" `Quick test_session_roundtrip;
    Alcotest.test_case "session file roundtrip" `Quick test_session_file_roundtrip;
    Alcotest.test_case "session resume and finish" `Quick test_session_resume_and_finish;
    Alcotest.test_case "session rejects garbage" `Quick test_session_rejects_garbage;
    Alcotest.test_case "session implied labels" `Quick test_session_implied_labels_ok;
    Alcotest.test_case "session v2 roundtrip" `Quick test_session_v2_roundtrip;
    Alcotest.test_case "session v1 fixture loads" `Quick test_session_v1_fixture_loads;
    Alcotest.test_case "session v2 fixture loads" `Quick test_session_v2_fixture_loads;
    Alcotest.test_case "session version errors" `Quick test_session_version_errors;
    Alcotest.test_case "session v2 field validation" `Quick test_session_v2_field_validation;
    Alcotest.test_case "session stale pending dropped" `Quick test_session_stale_pending_dropped;
  ]
