(* Join paths (§7 extension): the travel agency again, now with three
   tables — the user wants flight + hotel + excursion packages, so the
   system must infer TWO join predicates at once from labels on full
   (flight, hotel, excursion) triples.  A join path is a k-ary universe
   whose Ω keeps only the adjacent relation pairs, so the core engine
   (any strategy, L2S included) infers it unchanged.

   Run with:  dune exec examples/join_path.exe *)

module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Sample = Jqi_core.Sample
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference

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

let excursion =
  Relation.of_list ~name:"Excursion"
    ~schema:(Schema.of_names [ "Place"; "Kind" ])
    [
      Tuple.strs [ "NYC"; "museum" ];
      Tuple.strs [ "NYC"; "boat" ];
      Tuple.strs [ "Paris"; "museum" ];
      Tuple.strs [ "Lille"; "market" ];
    ]

let () =
  (* Flight → Hotel → Excursion: blocks (0,1) and (1,2) only. *)
  let u = Universe.build ~edges:[ (0, 1); (1, 2) ] [ flight; hotel; excursion ] in
  let omega = Universe.omega u in
  Printf.printf
    "Chain Flight → Hotel → Excursion: %d path tuples in %d signature \
     classes, %d edges, |Ω| = %d.\n"
    (Universe.total_tuples u) (Universe.n_classes u)
    (Array.length (Omega.blocks omega))
    (Omega.width omega);
  (* The goal: hotel in the destination city, excursion in the hotel's
     city. *)
  let goal =
    Omega.of_names_kary omega
      [ ("Flight.To", "Hotel.City"); ("Hotel.City", "Excursion.Place") ]
  in
  Printf.printf "goal (hidden): %s\n" (Omega.pred_to_string omega goal);
  let triple i =
    match Universe.representative u i with
    | Some tuples ->
        String.concat " ⊕ " (Array.to_list (Array.map Tuple.to_string tuples))
    | None -> Omega.pred_to_string omega (Universe.signature u i)
  in
  List.iter
    (fun strategy ->
      let result = Inference.run u strategy (Oracle.honest ~goal) in
      Printf.printf "\n%s: %d labels on (flight, hotel, excursion) triples\n"
        result.strategy result.n_interactions;
      List.iter
        (fun (i, lbl) ->
          Printf.printf "  %s %s\n"
            (match lbl with Sample.Positive -> "+" | Sample.Negative -> "-")
            (triple i))
        result.steps;
      Printf.printf "  inferred: %s%s\n"
        (Omega.pred_to_string omega result.predicate)
        (if Inference.verified u ~goal result then "  (equivalent to the goal)"
         else "  (NOT equivalent — bug)"))
    [ Strategy.td; Strategy.l1s; Strategy.l2s ];
  (* Show the packages the inferred path builds. *)
  let result = Inference.run u Strategy.l2s (Oracle.honest ~goal) in
  print_endline "\nThe packages selected by the inferred join path:";
  List.iter
    (fun i -> Printf.printf "  %s (×%d)\n" (triple i) (Universe.count u i))
    (Universe.selected_classes u result.predicate)
