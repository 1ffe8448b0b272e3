(* The observability layer (jqi.obs): counter registry, enabled/disabled
   semantics, span nesting, Chrome-trace export, Report snapshots, and the
   invariant that instrumentation never changes inference results. *)

module Obs = Jqi_obs.Obs
module Json = Jqi_util.Json
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference

(* Every test starts from a clean, enabled registry and leaves the layer
   disabled for whoever runs next. *)
let with_obs ?(enabled = true) f =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_counter_registry () =
  with_obs @@ fun () ->
  let a = Obs.Counter.make "test.reg.a" in
  let a' = Obs.Counter.make "test.reg.a" in
  Obs.Counter.incr a;
  Obs.Counter.add a' 2;
  (* make is idempotent: both handles hit the same cell. *)
  Alcotest.(check int) "shared cell" 3 (Obs.Counter.value a);
  Alcotest.(check int) "find by name" 3 (Obs.Counter.find "test.reg.a");
  Alcotest.(check int) "unknown name is 0" 0 (Obs.Counter.find "test.reg.nope");
  Alcotest.(check string) "name" "test.reg.a" (Obs.Counter.name a)

let test_counter_disabled_noop () =
  with_obs ~enabled:false @@ fun () ->
  let c = Obs.Counter.make "test.disabled.c" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "disabled increments dropped" 0 (Obs.Counter.value c);
  Obs.set_enabled true;
  Obs.Counter.incr c;
  Alcotest.(check int) "enabled increments land" 1 (Obs.Counter.value c)

let test_reset_zeroes () =
  with_obs @@ fun () ->
  let c = Obs.Counter.make "test.reset.c" in
  Obs.Counter.add c 7;
  ignore (Obs.span "test.reset.span" (fun () -> ()));
  Obs.reset ();
  Obs.set_enabled true;
  Alcotest.(check int) "counter zeroed" 0 (Obs.Counter.value c);
  let report = Obs.Report.snapshot () in
  Alcotest.(check int) "spans dropped" 0 (List.length report.Obs.Report.spans);
  (* The counter stays registered after reset. *)
  Alcotest.(check bool) "still registered" true
    (List.mem_assoc "test.reset.c" report.Obs.Report.counters)

let test_histogram () =
  with_obs @@ fun () ->
  let h = Obs.Histogram.make "test.h" in
  List.iter (Obs.Histogram.observe h) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 10. (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Obs.Histogram.mean h);
  (* Bucketed quantile: accurate to a factor of 2. *)
  let q = Obs.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "median within 2x" true (q >= 2. && q <= 8.)

let test_span_disabled_is_identity () =
  with_obs ~enabled:false @@ fun () ->
  let calls = ref 0 in
  let v =
    Obs.span "test.off" (fun () ->
        incr calls;
        42)
  in
  Alcotest.(check int) "returns f ()" 42 v;
  Alcotest.(check int) "f ran once" 1 !calls;
  Obs.set_enabled true;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Obs.Report.snapshot ()).Obs.Report.spans)

let test_span_nesting () =
  with_obs @@ fun () ->
  Obs.span "outer" (fun () ->
      Obs.span "inner" (fun () -> ());
      Obs.span "inner" (fun () -> ()));
  let spans = (Obs.Report.snapshot ()).Obs.Report.spans in
  let find name =
    List.find (fun s -> s.Obs.Report.s_name = name) spans
  in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check int) "outer depth" 0 outer.Obs.Report.s_depth;
  Alcotest.(check int) "inner depth" 1 inner.Obs.Report.s_depth;
  Alcotest.(check string) "outer path" "outer" outer.Obs.Report.s_path;
  Alcotest.(check string) "inner path" "outer/inner" inner.Obs.Report.s_path;
  Alcotest.(check int) "outer calls" 1 outer.Obs.Report.s_calls;
  Alcotest.(check int) "inner calls aggregated" 2 inner.Obs.Report.s_calls;
  Alcotest.(check bool) "parent covers children" true
    (outer.Obs.Report.s_total >= inner.Obs.Report.s_total);
  (* Pre-order: the parent precedes its children. *)
  match spans with
  | first :: _ -> Alcotest.(check string) "parent first" "outer" first.Obs.Report.s_name
  | [] -> Alcotest.fail "no spans"

let test_span_exception_safe () =
  with_obs @@ fun () ->
  (try Obs.span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  Obs.span "after" (fun () -> ());
  let spans = (Obs.Report.snapshot ()).Obs.Report.spans in
  let depths = List.map (fun s -> (s.Obs.Report.s_name, s.Obs.Report.s_depth)) spans in
  (* The raising span closed: "after" is a root, not a child of "boom". *)
  Alcotest.(check bool) "boom recorded at depth 0" true
    (List.mem ("boom", 0) depths);
  Alcotest.(check bool) "after recorded at depth 0" true
    (List.mem ("after", 0) depths)

let test_trace_json_shape () =
  with_obs @@ fun () ->
  Obs.span ~attrs:[ ("k", "2") ] "a" (fun () -> Obs.span "b" (fun () -> ()));
  match Obs.trace_json () with
  | Json.Obj fields ->
      Alcotest.(check bool) "displayTimeUnit" true
        (List.mem_assoc "displayTimeUnit" fields);
      let events =
        match List.assoc "traceEvents" fields with
        | Json.List evs -> evs
        | _ -> Alcotest.fail "traceEvents is not a list"
      in
      Alcotest.(check int) "one event per span" 2 (List.length events);
      List.iter
        (fun ev ->
          match ev with
          | Json.Obj f ->
              let str k = match List.assoc k f with Json.Str s -> s | _ -> "" in
              let num k =
                match List.assoc k f with
                | Json.Num x -> x
                | _ -> Alcotest.failf "%s not a number" k
              in
              Alcotest.(check string) "complete event" "X" (str "ph");
              Alcotest.(check bool) "ts µs >= 0" true (num "ts" >= 0.);
              Alcotest.(check bool) "dur µs >= 0" true (num "dur" >= 0.);
              Alcotest.(check bool) "pid" true (List.mem_assoc "pid" f);
              Alcotest.(check bool) "tid" true (List.mem_assoc "tid" f);
              Alcotest.(check bool) "named" true (str "name" <> "")
          | _ -> Alcotest.fail "event is not an object")
        events;
      (* The attrs ride along under "args". *)
      let has_args =
        List.exists
          (function
            | Json.Obj f -> (
                match List.assoc_opt "args" f with
                | Some (Json.Obj [ ("k", Json.Str "2") ]) -> true
                | _ -> false)
            | _ -> false)
          events
      in
      Alcotest.(check bool) "attrs under args" true has_args
  | _ -> Alcotest.fail "trace is not an object"

let test_save_trace_parses () =
  with_obs @@ fun () ->
  Obs.span "io" (fun () -> ());
  let path = Filename.temp_file "jqi_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.save_trace path;
      match Json.load_file path with
      | Json.Obj fields ->
          Alcotest.(check bool) "parses with traceEvents" true
            (List.mem_assoc "traceEvents" fields)
      | _ -> Alcotest.fail "saved trace is not an object")

let test_report_counter_and_json () =
  with_obs @@ fun () ->
  Obs.Counter.add (Obs.Counter.make "test.rep.c") 5;
  let report = Obs.Report.snapshot () in
  Alcotest.(check int) "counter accessor" 5
    (Obs.Report.counter report "test.rep.c");
  Alcotest.(check int) "missing counter is 0" 0
    (Obs.Report.counter report "test.rep.absent");
  (match Obs.Report.to_json report with
  | Json.Obj fields ->
      Alcotest.(check bool) "counters field" true (List.mem_assoc "counters" fields)
  | _ -> Alcotest.fail "report json is not an object");
  let rendered = Obs.Report.render report in
  Alcotest.(check bool) "render mentions the counter" true
    (let needle = "test.rep.c" in
     let hl = String.length rendered and nl = String.length needle in
     let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
     go 0)

(* Instrumentation must be observation-only: the same inference, run with
   obs off and on, yields identical question sequences — and the question
   counter agrees with the run's own interaction count. *)
let test_inference_unchanged_by_obs () =
  let universe = Fixtures.universe0 in
  let goal = Fixtures.pred0 [ (0, 2) ] in
  let run () = Inference.run universe Strategy.l2s (Oracle.honest ~goal) in
  Obs.set_enabled false;
  Obs.reset ();
  let off = run () in
  with_obs @@ fun () ->
  let on = run () in
  Alcotest.(check (list (pair int Fixtures.label_testable)))
    "identical question/answer sequence" off.Inference.steps on.Inference.steps;
  Alcotest.(check int) "questions counter = interactions" on.Inference.n_interactions
    (Obs.Counter.find "oracle.questions")

(* Universe.build alone reports the per-build counters, which the wire
   benchmark divides by its count of build spans, at every k; the walks
   run by apply_delta add to none of them and open no build span. *)
let test_universe_build_counters () =
  with_obs @@ fun () ->
  let module Relation = Jqi_relational.Relation in
  let module Tuple = Jqi_relational.Tuple in
  (* Example 2.1's R0 with its first row twice: 5 rows, 4 profiles. *)
  let r =
    Relation.of_list ~name:"R" ~schema:(Fixtures.int_schema [ "A1"; "A2" ])
      (Tuple.ints [ 0; 1 ] :: Relation.to_list Fixtures.r0)
  in
  let counts () =
    List.map Obs.Counter.find
      [
        "universe.dict_values";
        "universe.profiles_r";
        "universe.profiles_p";
        "universe.profile_pairs";
        "universe.pairs_skipped";
      ]
  in
  let builds () =
    List.fold_left
      (fun n s ->
        if String.equal s.Obs.Report.s_name "universe.build_quotient" then
          n + s.Obs.Report.s_calls
        else n)
      0 (Obs.Report.snapshot ()).Obs.Report.spans
  in
  let u = Universe.build [ r; Fixtures.p0 ] in
  Alcotest.(check (list int)) "k = 2: 3 values, 4 × 3 profiles, 15 − 12 skipped"
    [ 3; 4; 3; 12; 3 ] (counts ());
  ignore (Universe.build [ r; Fixtures.p0; Fixtures.r0 ] : Universe.t);
  Alcotest.(check (list int)) "k = 3 adds 3 values, 4 and 3 + 4 profiles, 60 − 48"
    [ 6; 8; 10; 60; 15 ] (counts ());
  (* Removing R's row 0 hits representatives, so the repair walk runs
     beside the remove and add walks. *)
  let change rel adds removes =
    Relation.apply_delta rel (Jqi_relational.Delta.of_lists ~adds ~removes)
  in
  ignore
    (Universe.apply_delta u
       [
         (0, change r [ Tuple.ints [ 5; 5 ] ] [ Tuple.ints [ 0; 1 ] ]);
         (1, change Fixtures.p0 [ Tuple.ints [ 2; 2; 2 ] ] []);
       ]
      : Universe.t);
  Alcotest.(check (list int)) "apply_delta adds no build counts"
    [ 6; 8; 10; 60; 15 ] (counts ());
  Alcotest.(check int) "one build span per build" 2 (builds ())

let suite =
  [
    Alcotest.test_case "counter registry" `Quick test_counter_registry;
    Alcotest.test_case "disabled counters are no-ops" `Quick test_counter_disabled_noop;
    Alcotest.test_case "reset zeroes, keeps registrations" `Quick test_reset_zeroes;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "disabled span is identity" `Quick test_span_disabled_is_identity;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "chrome trace shape" `Quick test_trace_json_shape;
    Alcotest.test_case "save_trace parses back" `Quick test_save_trace_parses;
    Alcotest.test_case "report counter/json/render" `Quick test_report_counter_and_json;
    Alcotest.test_case "inference unchanged by obs" `Quick test_inference_unchanged_by_obs;
    Alcotest.test_case "universe build counters: build only" `Quick
      test_universe_build_counters;
  ]
