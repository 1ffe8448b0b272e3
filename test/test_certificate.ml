(* Certificates: minimal evidence for an inference result. *)

open Fixtures
module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Certificate = Jqi_core.Certificate

let finished_state ~goal strategy =
  (Inference.run universe0 strategy (Oracle.honest ~goal)).state

let test_certificate_invariants () =
  List.iter
    (fun goal ->
      List.iter
        (fun strategy ->
          let st = finished_state ~goal strategy in
          let cert = Certificate.of_state st in
          Alcotest.(check bool) "irredundant" true
            (Certificate.is_irredundant universe0 cert);
          Alcotest.(check bool) "no larger than the session" true
            (Certificate.size cert <= State.n_interactions st);
          Alcotest.check bits_testable "same predicate" (State.inferred st)
            cert.predicate;
          (* Every certificate example keeps its session label. *)
          List.iter
            (fun (cls, lbl) ->
              Alcotest.(check (option label_testable)) "label preserved"
                (Some lbl) (State.label_of st cls))
            cert.examples)
        [ Strategy.bu; Strategy.td; Strategy.l2s ])
    [ pred0 []; pred0 [ (0, 2) ]; pred0 [ (0, 0); (1, 2) ]; Omega.full omega0 ]

let test_certificate_shrinks_bu () =
  (* The BU run on goal Ω labels many tuples; the certificate keeps only
     what pins the answer. *)
  let st = finished_state ~goal:(Omega.full omega0) Strategy.bu in
  let cert = Certificate.of_state st in
  Alcotest.(check bool)
    (Printf.sprintf "shrank (%d -> %d)" (State.n_interactions st)
       (Certificate.size cert))
    true
    (Certificate.size cert < State.n_interactions st)

let test_unfinished_rejected () =
  let st = State.create universe0 in
  State.label st (class0 (2, 2)) Jqi_core.Sample.Positive;
  Alcotest.(check bool) "raises" true
    (try ignore (Certificate.of_state st); false with Invalid_argument _ -> true)

let test_random_instances () =
  let prng = Prng.create 19 in
  for _ = 1 to 30 do
    let r, p = Jqi_synth.Synth.generate prng (Jqi_synth.Synth.config 2 2 6 3) in
    let universe = Universe.build [ r; p ] in
    let goals =
      Jqi_core.Omega.empty (Universe.omega universe)
      :: Universe.signatures universe
    in
    let goal = Prng.pick_list prng goals in
    let result = Inference.run universe Strategy.td (Oracle.honest ~goal) in
    let cert = Certificate.of_state result.state in
    Alcotest.(check bool) "irredundant" true
      (Certificate.is_irredundant universe cert)
  done

let test_pp () =
  let st = finished_state ~goal:(pred0 [ (0, 2) ]) Strategy.td in
  let cert = Certificate.of_state st in
  Alcotest.(check bool) "pp nonempty" true
    (String.length (Fmt.str "%a" (Certificate.pp universe0) cert) > 0)

let suite =
  [
    Alcotest.test_case "invariants across strategies/goals" `Quick test_certificate_invariants;
    Alcotest.test_case "shrinks a BU transcript" `Quick test_certificate_shrinks_bu;
    Alcotest.test_case "unfinished rejected" `Quick test_unfinished_rejected;
    Alcotest.test_case "random instances" `Quick test_random_instances;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
