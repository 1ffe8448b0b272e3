(* Synthetic exploration (§5.2): the (3,3,100,100) configuration the paper
   singles out as representative of RDF triple stores — two ternary
   relations whose join predicate may align any subject/predicate/object
   position with any other.

   Sweeps goal sizes 0..4 over freshly generated instances and reports the
   average number of interactions per strategy, reproducing the shape of
   Figure 7a: BU wins only for the empty goal, TD is best at size 2 (the
   hard middle of the lattice), the lookahead strategies win elsewhere.

   Run with:  dune exec examples/synthetic_rdf.exe -- [runs] *)

module Synth = Jqi_synth.Synth
module Universe = Jqi_core.Universe
module Omega = Jqi_core.Omega
module Prng = Jqi_util.Prng
module E = Jqi_experiments

let () =
  let runs =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 10
  in
  let config = Synth.config 3 3 100 100 in
  Printf.printf
    "Config %s: triple-store-like relations R(A1,A2,A3), P(B1,B2,B3), %d \
     rows each, values 0..%d; %d runs.\n"
    (Fmt.str "%a" Synth.pp_config config)
    config.rows (config.values - 1) runs;
  let result = E.Fig7.run ~seed:7 ~runs ~goals_per_size:3 config in
  Printf.printf "average join ratio: %.3f (paper: 1.647)\n\n" result.join_ratio;
  print_string (E.Fig7.interactions_chart result);
  print_newline ();
  (* Show one concrete inference in detail. *)
  let prng = Prng.create 99 in
  let r, p = Synth.generate prng config in
  let universe = Universe.build [ r; p ] in
  let omega = Universe.omega universe in
  match Synth.goals_of_size universe ~size:2 with
  | [] -> print_endline "no size-2 goal on this draw"
  | goal :: _ ->
      Printf.printf "One size-2 inference in detail, goal %s:\n"
        (Omega.pred_to_string omega goal);
      let result =
        Jqi_core.Inference.run universe Jqi_core.Strategy.td
          (Jqi_core.Oracle.honest ~goal)
      in
      List.iter
        (fun (cls, label) ->
          Printf.printf "  asked about signature %s (×%d tuples) -> %s\n"
            (Omega.pred_to_string omega (Universe.signature universe cls))
            (Universe.count universe cls)
            (match label with
            | Jqi_core.Sample.Positive -> "+"
            | Jqi_core.Sample.Negative -> "-"))
        result.steps;
      Printf.printf "inferred %s in %d interactions (|D| = %d tuples)\n"
        (Omega.pred_to_string omega result.predicate)
        result.n_interactions
        (Universe.total_tuples universe)
