(* Quickstart: the paper's introduction example (§1, Figures 1-2).

   A travel-agency user wants flight&hotel packages but cannot write the
   join; we infer it by asking her to label a handful of (flight, hotel)
   pairs.  Two goal queries are played out:

     Q1: Flight.To = Hotel.City
     Q2: Flight.To = Hotel.City ∧ Flight.Airline = Hotel.Discount

   Run with:  dune exec examples/quickstart.exe *)

module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Sample = Jqi_core.Sample

let flight =
  Relation.of_list ~name:"Flight"
    ~schema:(Schema.of_names [ "From"; "To"; "Airline" ])
    [
      Tuple.strs [ "Paris"; "Lille"; "AF" ];
      Tuple.strs [ "Lille"; "NYC"; "AA" ];
      Tuple.strs [ "NYC"; "Paris"; "AA" ];
      Tuple.strs [ "Paris"; "NYC"; "AF" ];
    ]

let hotel =
  Relation.of_list ~name:"Hotel"
    ~schema:(Schema.of_names [ "City"; "Discount" ])
    [
      Tuple.strs [ "NYC"; "AA" ];
      Tuple.strs [ "Paris"; "None" ];
      Tuple.strs [ "Lille"; "AF" ];
    ]

let play ~title ~goal_pairs strategy =
  Printf.printf "\n== %s ==\n" title;
  let universe = Universe.build [ flight; hotel ] in
  let omega = Universe.omega universe in
  let goal = Omega.of_names omega goal_pairs in
  Printf.printf "goal (hidden from the strategy): %s\n"
    (Omega.pred_to_string omega goal);
  let oracle = Oracle.honest ~goal in
  let result = Inference.run universe strategy oracle in
  List.iter
    (fun (cls, label) ->
      match Universe.representative universe cls with
      | Some tuples ->
          Printf.printf "  user labels %s  ->  %s\n"
            (String.concat " + " (Array.to_list (Array.map Tuple.to_string tuples)))
            (match label with Sample.Positive -> "yes, keep it"
                            | Sample.Negative -> "no, drop it")
      | None -> ())
    result.steps;
  Printf.printf "inferred after %d interactions: %s\n"
    result.n_interactions
    (Omega.pred_to_string omega result.predicate);
  Printf.printf "equivalent to the goal on this instance: %b\n"
    (Inference.verified universe ~goal result);
  (* The minimal evidence: which of the answers actually pinned the query
     down. *)
  let cert = Jqi_core.Certificate.of_state result.state in
  Printf.printf "minimal evidence: %d of the %d answers suffice\n"
    (Jqi_core.Certificate.size cert) result.n_interactions;
  (* Show the packages the inferred query builds. *)
  let join =
    Jqi_relational.Join.equijoin flight hotel
      (Omega.to_pairs omega result.predicate)
  in
  Printf.printf "the resulting packages (%d):\n" (Relation.cardinality join);
  Relation.iter
    (fun row -> Printf.printf "  %s\n" (Tuple.to_string row))
    join

let () =
  print_endline "Input tables (Figure 1):";
  Relation.print flight;
  Relation.print hotel;
  play ~title:"Inferring Q1 with the top-down strategy"
    ~goal_pairs:[ ("To", "City") ]
    Strategy.td;
  play ~title:"Inferring Q2 (with the discount constraint), top-down"
    ~goal_pairs:[ ("To", "City"); ("Airline", "Discount") ]
    Strategy.td;
  play ~title:"Inferring Q2 with the 2-step lookahead skyline strategy"
    ~goal_pairs:[ ("To", "City"); ("Airline", "Discount") ]
    Strategy.l2s
