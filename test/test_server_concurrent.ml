(* The concurrency battery for the sharded server (doc/SERVICE.md
   "Concurrency testing"): domains of interleaved sessions must converge
   to the same θ as a sequential run with no leaks and exact shard
   accounting; the worker pool's submit/shed bookkeeping is pinned with a
   gated worker; the socket listener is exercised end-to-end over a
   Unix-domain socket (including garbage and oversized lines); and a
   QCheck race hammer throws random operation interleavings at one
   manager from several domains and checks the invariants survive. *)

open Fixtures
module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Engine = Jqi_core.Engine
module Sample = Jqi_core.Sample
module Catalog = Jqi_server.Catalog
module Manager = Jqi_server.Manager
module Pool = Jqi_server.Pool
module Listener = Jqi_server.Listener
module P = Jqi_server.Protocol
module Service = Jqi_server.Service

let fh_omega =
  Jqi_core.Omega.of_schemas
    (Relation.schema Fixtures.flight)
    (Relation.schema Fixtures.hotel)

let fh_goal = Jqi_core.Omega.of_names fh_omega [ ("To", "City") ]

let label_for goal signature =
  if Bits.subset goal signature then Sample.Positive else Sample.Negative

let fh_catalog () =
  let catalog = Catalog.create () in
  Catalog.add catalog Fixtures.flight;
  Catalog.add catalog Fixtures.hotel;
  catalog

let expect_ok what = function
  | Ok x -> x
  | Error e -> Alcotest.fail (what ^ ": " ^ Manager.error_message e)

let rec drive manager id turn =
  match turn with
  | Manager.Finished outcome -> outcome
  | Manager.Next q ->
      drive manager id
        (expect_ok "tell"
           (Manager.tell manager id (label_for fh_goal q.Engine.signature)))

(* One complete honest session: open, answer every question, close;
   returns the inferred predicate. *)
let open_and_drive manager strategy =
  let info =
    expect_ok "open"
      (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ] ~strategy)
  in
  let outcome =
    drive manager info.Manager.id
      (expect_ok "ask" (Manager.ask manager info.Manager.id))
  in
  expect_ok "close" (Manager.close manager info.Manager.id);
  outcome.Engine.predicate

(* ----------------- domains × sessions ≡ sequential ----------------- *)

let test_concurrent_converges () =
  (* Sequential reference run, one predicate per strategy. *)
  let seq_manager = Manager.create (fh_catalog ()) in
  let expected_td = open_and_drive seq_manager "td" in
  let expected_bu = open_and_drive seq_manager "bu" in
  let manager = Manager.create ~shards:8 (fh_catalog ()) in
  let n_domains = 4 and per_domain = 8 in
  let domains =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            List.init per_domain (fun i ->
                let strategy = if (d + i) mod 2 = 0 then "td" else "bu" in
                (strategy, open_and_drive manager strategy))))
  in
  let outcomes = List.concat_map Domain.join domains in
  Alcotest.(check int) "every session ran" (n_domains * per_domain)
    (List.length outcomes);
  List.iter
    (fun (strategy, theta) ->
      let expected =
        if String.equal strategy "td" then expected_td else expected_bu
      in
      Alcotest.check bits_testable
        ("concurrent θ matches sequential (" ^ strategy ^ ")")
        expected theta)
    outcomes;
  (* No leaks: every session was closed. *)
  Alcotest.(check int) "no sessions leak" 0 (Manager.session_count manager);
  Alcotest.(check (list string)) "no ids leak" [] (Manager.session_ids manager);
  let stats = Manager.stats manager in
  Alcotest.(check int) "opened counted" (n_domains * per_domain)
    stats.Manager.opened;
  Alcotest.(check int) "closed counted" (n_domains * per_domain)
    stats.Manager.closed;
  Alcotest.(check int) "live zero" 0 stats.Manager.live;
  (* Shard stats sum to global stats, exactly. *)
  let summed =
    List.fold_left Manager.add_stats Manager.zero_stats
      (Manager.shard_stats manager)
  in
  Alcotest.(check bool) "shard stats sum to global" true (summed = stats);
  (* Concurrent opens over one pair still build the universe once. *)
  let hits, misses = Catalog.stats (Manager.catalog manager) in
  Alcotest.(check int) "one universe build" 1 misses;
  Alcotest.(check int) "every other open hit" ((n_domains * per_domain) - 1) hits;
  let cat_hits, cat_misses =
    List.fold_left
      (fun (h, m) (sh, sm) -> (h + sh, m + sm))
      (0, 0)
      (Catalog.shard_stats (Manager.catalog manager))
  in
  Alcotest.(check (pair int int)) "catalog shard stats sum to global"
    (hits, misses) (cat_hits, cat_misses)

(* ------------------------------ pool ------------------------------- *)

let test_pool_accounting () =
  let pool = Pool.create ~workers:2 () in
  Alcotest.(check int) "workers clamped" 2 (Pool.workers pool);
  let results = List.init 50 (fun i -> Pool.submit pool (fun () -> i * i)) in
  List.iteri
    (fun i outcome ->
      match outcome with
      | Pool.Done v -> Alcotest.(check int) "job result" (i * i) v
      | Pool.Shed -> Alcotest.fail "unexpected shed")
    results;
  (* A job's exception resurfaces in the caller; the worker survives. *)
  (match Pool.submit pool (fun () -> failwith "boom") with
  | exception Failure msg -> Alcotest.(check string) "re-raised" "boom" msg
  | Pool.Done _ | Pool.Shed -> Alcotest.fail "expected the job's exception");
  (match Pool.submit pool (fun () -> 7) with
  | Pool.Done v -> Alcotest.(check int) "worker survived the raise" 7 v
  | Pool.Shed -> Alcotest.fail "unexpected shed");
  Pool.shutdown pool;
  let st = Pool.stats pool in
  Alcotest.(check int) "submitted" 52 st.Pool.submitted;
  Alcotest.(check int) "completed" 52 st.Pool.completed;
  Alcotest.(check int) "nothing shed" 0 st.Pool.shed;
  match Pool.submit pool (fun () -> 0) with
  | Pool.Shed -> ()
  | Pool.Done _ -> Alcotest.fail "a closed pool must shed"

(* Deterministic backpressure: gate the single worker, fill the
   1-deep queue, and watch the next request shed. *)
let test_pool_backpressure () =
  let pool = Pool.create ~capacity:1 ~workers:1 () in
  let gate = Mutex.create () in
  let started = Mutex.create () in
  let started_c = Condition.create () in
  let running = ref false in
  Mutex.lock gate;
  let accepted1 =
    Pool.async pool (fun () ->
        Mutex.lock started;
        running := true;
        Condition.signal started_c;
        Mutex.unlock started;
        (* Park on the gate until the test releases it. *)
        Mutex.lock gate;
        Mutex.unlock gate)
  in
  Alcotest.(check bool) "job 1 accepted" true accepted1;
  (* Wait until the worker holds job 1, so the queue is empty again. *)
  Mutex.lock started;
  while not !running do
    Condition.wait started_c started
  done;
  Mutex.unlock started;
  Alcotest.(check bool) "job 2 fills the queue" true
    (Pool.async pool (fun () -> ()));
  Alcotest.(check bool) "job 3 is shed" false (Pool.async pool (fun () -> ()));
  Mutex.unlock gate;
  Pool.shutdown pool;
  let st = Pool.stats pool in
  Alcotest.(check int) "two accepted" 2 st.Pool.submitted;
  Alcotest.(check int) "both completed" 2 st.Pool.completed;
  Alcotest.(check int) "exactly one shed" 1 st.Pool.shed;
  Alcotest.(check int) "queue never exceeded capacity" 1 st.Pool.max_depth

let test_busy_frame () =
  match Service.busy () with
  | P.Error { code = "busy"; _ } -> ()
  | _ -> Alcotest.fail "busy must be a typed error frame"

(* ---------------------------- listener ----------------------------- *)

let with_listener ?max_frame f =
  let manager = Manager.create (fh_catalog ()) in
  let pool = Pool.create ~workers:2 () in
  let path = Filename.temp_file "jqi_sock" ".sock" in
  let listener =
    Listener.start ?max_frame ~pool manager (Listener.Unix_path path)
  in
  Fun.protect
    ~finally:(fun () ->
      Listener.stop listener;
      Pool.shutdown pool;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f manager listener path)

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let close_quietly oc = try close_out oc with Sys_error _ -> ()

let rpc ic oc next_id request =
  incr next_id;
  send oc (P.encode_request ~id:!next_id request);
  match P.decode_response (input_line ic) with
  | Ok (_, response) -> response
  | Error _ -> Alcotest.fail "undecodable reply from the listener"

(* Drive one full session over an established connection. *)
let drive_connection ic oc =
  let next_id = ref 0 in
  let call request = rpc ic oc next_id request in
  let session =
    match call (P.Open_session { r = "Flight"; p = "Hotel"; strategy = "td" }) with
    | P.Opened { session; _ } -> session
    | _ -> Alcotest.fail "open over the wire"
  in
  let rec loop response =
    match response with
    | P.Question { q_r_row; q_p_row; _ } ->
        let s =
          Sample.signature_of_tuple fh_omega Fixtures.flight Fixtures.hotel
            (q_r_row, q_p_row)
        in
        loop (call (P.Tell { session; label = label_for fh_goal s }))
    | P.Done { predicate; _ } ->
        (match call (P.Close { session }) with
        | P.Closed _ -> ()
        | _ -> Alcotest.fail "close over the wire");
        predicate
    | _ -> Alcotest.fail "unexpected turn over the wire"
  in
  loop (call (P.Ask { session }))

let test_listener_end_to_end () =
  with_listener (fun manager listener path ->
      let ic, oc = connect path in
      let next_id = ref 0 in
      let call request = rpc ic oc next_id request in
      (match call (P.Hello { versions = [ 1; 9 ] }) with
      | P.Welcome { version = 1 } -> ()
      | _ -> Alcotest.fail "hello over the wire");
      Alcotest.(check (list (pair string string)))
        "θ inferred over the socket" [ ("To", "City") ] (drive_connection ic oc);
      Alcotest.(check int) "one connection live" 1 (Listener.connections listener);
      (* Garbage earns an error frame and the connection survives. *)
      send oc "this is not json";
      (match P.decode_response (input_line ic) with
      | Ok (0, P.Error { code = "parse"; _ }) -> ()
      | _ -> Alcotest.fail "garbage must earn a parse error frame");
      (match call P.Stats with
      | P.Stats_reply { sessions = 0; _ } -> ()
      | _ -> Alcotest.fail "connection must survive garbage");
      Alcotest.(check int) "no sessions left behind" 0
        (Manager.session_count manager);
      close_quietly oc)

let test_listener_overflow_disconnects () =
  with_listener ~max_frame:128 (fun _manager _listener path ->
      let ic, oc = connect path in
      send oc (String.make 1000 'x');
      (match P.decode_response (input_line ic) with
      | Ok (0, P.Error { code = "overflow"; _ }) -> ()
      | _ -> Alcotest.fail "oversized line must earn an overflow frame");
      (match input_line ic with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "server must disconnect after an overflow");
      close_quietly oc)

let test_listener_concurrent_clients () =
  with_listener (fun manager _listener path ->
      let n = 6 in
      let results = Array.make n [] in
      let client i () =
        let ic, oc = connect path in
        results.(i) <- drive_connection ic oc;
        close_quietly oc
      in
      let threads = List.init n (fun i -> Thread.create (client i) ()) in
      List.iter Thread.join threads;
      Array.iter
        (fun predicate ->
          Alcotest.(check (list (pair string string)))
            "every concurrent client converged" [ ("To", "City") ] predicate)
        results;
      Alcotest.(check int) "no sessions leak" 0 (Manager.session_count manager);
      let hits, misses = Catalog.stats (Manager.catalog manager) in
      Alcotest.(check int) "one build across clients" 1 misses;
      Alcotest.(check int) "other clients hit the cache" (n - 1) hits)

(* --------------------------- race hammer --------------------------- *)

(* Random interleavings of every manager operation from four domains:
   nothing may raise, sessions may not corrupt each other, and the exact
   shard accounting must balance afterwards. *)
let hammer seed =
  let tick = Atomic.make 0 in
  let manager =
    Manager.create
      ~clock:(fun () -> float_of_int (Atomic.get tick))
      ~idle_timeout:5. ~shards:4 (fh_catalog ())
  in
  let ids = Array.init 10 (fun i -> Printf.sprintf "s%d" (i + 1)) in
  let run_ops prng =
    for _ = 1 to 60 do
      let id = Prng.pick prng ids in
      match Prng.int prng 8 with
      | 0 ->
          ignore
            (Manager.open_session manager ~relations:[ "Flight"; "Hotel" ]
               ~strategy:(if Prng.bool prng then "td" else "bu"))
      | 1 -> ignore (Manager.ask manager id)
      | 2 ->
          ignore (Manager.tell manager id (Sample.label_of_bool (Prng.bool prng)))
      | 3 -> (
          match Manager.save manager id with
          | Ok doc ->
              ignore (Manager.resume_session manager ~relations:[ "Flight"; "Hotel" ] doc)
          | Error _ -> ())
      | 4 -> ignore (Manager.close manager id)
      | 5 ->
          ignore (Atomic.fetch_and_add tick 1);
          ignore (Manager.sweep manager)
      | 6 -> ignore (Manager.evicted_doc manager id)
      | _ ->
          ignore (Manager.stats manager);
          ignore (Manager.session_ids manager)
    done
  in
  let domains =
    List.init 4 (fun d -> Domain.spawn (fun () -> run_ops (Prng.create (seed + d))))
  in
  List.iter Domain.join domains;
  let stats = Manager.stats manager in
  let summed =
    List.fold_left Manager.add_stats Manager.zero_stats
      (Manager.shard_stats manager)
  in
  summed = stats
  && stats.Manager.live = Manager.session_count manager
  && List.length (Manager.session_ids manager) = stats.Manager.live
  && stats.Manager.live
     = stats.Manager.opened + stats.Manager.resumed - stats.Manager.closed
       - stats.Manager.evicted
  && List.for_all
       (fun id ->
         match Manager.ask manager id with Ok _ -> true | Error _ -> false)
       (Manager.session_ids manager)

let qcheck_race_hammer =
  QCheck.Test.make
    ~name:"race hammer: random op interleavings never raise or corrupt"
    ~count:5
    (QCheck.make QCheck.Gen.(int_bound 10_000) ~print:string_of_int)
    hammer

let suite =
  [
    Alcotest.test_case "domains x sessions converge to sequential θ" `Quick
      test_concurrent_converges;
    Alcotest.test_case "pool accounting and exceptions" `Quick
      test_pool_accounting;
    Alcotest.test_case "pool backpressure sheds deterministically" `Quick
      test_pool_backpressure;
    Alcotest.test_case "busy frame is typed" `Quick test_busy_frame;
    Alcotest.test_case "listener end-to-end over unix socket" `Quick
      test_listener_end_to_end;
    Alcotest.test_case "listener overflow disconnects cleanly" `Quick
      test_listener_overflow_disconnects;
    Alcotest.test_case "listener serves concurrent clients" `Quick
      test_listener_concurrent_clients;
    QCheck_alcotest.to_alcotest qcheck_race_hammer;
  ]
