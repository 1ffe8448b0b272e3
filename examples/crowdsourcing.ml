(* Crowdsourcing cost model (§1 and §7).

   The paper motivates minimizing interactions by crowdsourcing economics:
   every label is a paid micro-task.  This example prices the strategies
   on the TPC-H joins at typical crowd rates, including majority-vote
   redundancy (each tuple shown to 2k+1 workers), and shows how the
   lookahead strategies translate to money saved.

   Run with:  dune exec examples/crowdsourcing.exe *)

module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Tpch = Jqi_tpch.Tpch
module Prng = Jqi_util.Prng
module Table = Jqi_util.Ascii_table

let price_per_label = 0.05 (* dollars, a typical binary micro-task rate *)
let redundancy = 3 (* majority vote of 3 workers per tuple *)

let () =
  Printf.printf
    "Crowd pricing: $%.2f per label, %dx majority vote => $%.2f per presented tuple\n"
    price_per_label redundancy
    (price_per_label *. float_of_int redundancy);
  let db = Tpch.generate ~scale:2 () in
  let strategies =
    [
      Strategy.bu;
      Strategy.td;
      Strategy.l1s;
      Strategy.l2s;
      Strategy.rnd (Prng.create 1);
    ]
  in
  let rows =
    List.concat_map
      (fun (join : Tpch.goal_join) ->
        let universe = Universe.build [ join.r; join.p ] in
        let goal = Tpch.goal_predicate (Universe.omega universe) join in
        List.map
          (fun strategy ->
            let result = Inference.run universe strategy (Oracle.honest ~goal) in
            let cost =
              float_of_int result.n_interactions
              *. float_of_int redundancy *. price_per_label
            in
            [
              join.label;
              result.strategy;
              string_of_int result.n_interactions;
              Printf.sprintf "$%.2f" cost;
              Printf.sprintf "%.3fs" result.elapsed;
            ])
          strategies)
      (Tpch.joins db)
  in
  print_string
    (Table.render
       ~headers:[ "goal join"; "strategy"; "labels"; "crowd cost"; "compute" ]
       rows);
  print_endline
    "\nReading: the lookahead strategies pay compute to save crowd dollars —\n\
     on the multi-attribute joins (4 and 5) L2S is typically several times\n\
     cheaper than BU/RND, which is the paper's economic argument for\n\
     entropy-guided tuple selection.";
  (* Total-cost comparison line. *)
  let totals = Hashtbl.create 8 in
  List.iter
    (fun row ->
      match row with
      | [ _; strat; labels; _; _ ] ->
          let c = Option.value ~default:0 (Hashtbl.find_opt totals strat) in
          Hashtbl.replace totals strat (c + int_of_string labels)
      | _ -> ())
    rows;
  print_endline "\nTotal labels to recover all five joins:";
  List.iter
    (fun name ->
      match Hashtbl.find_opt totals name with
      | Some n ->
          Printf.printf "  %-4s %4d labels  = $%.2f\n" name n
            (float_of_int (n * redundancy) *. price_per_label)
      | None -> ())
    [ "BU"; "TD"; "L1S"; "L2S"; "RND" ]
