(* Figure 6: the TPC-H experiments (§5.1).

   For two database scales ("small" and "large", bracketing the paper's two
   reported scale factors — see DESIGN.md substitution 2), run every
   strategy against the five key/foreign-key goal joins and report the
   number of interactions (6a/6b) and the inference time (6c/6d). *)

module Relation = Jqi_relational.Relation
module Universe = Jqi_core.Universe
module Omega = Jqi_core.Omega
module Chart = Jqi_util.Chart
module Table = Jqi_util.Ascii_table
module Tpch = Jqi_tpch.Tpch

type join_result = {
  label : string;
  goal_size : int;
  product_size : float;
  join_ratio : float;
  n_classes : int;
  measurements : Runner.measurement list;
}

(* [builder] picks the universe constructor (default [Universe.build])
   so the bench can A/B builders and report which one produced the
   timings. *)
let run_join ?(builder = fun rels -> Universe.build rels) ~seed
    (join : Tpch.goal_join) =
  let universe = builder [ join.r; join.p ] in
  let omega = Universe.omega universe in
  let goal = Tpch.goal_predicate omega join in
  let measurements =
    Runner.run_goal universe ~goal (Runner.paper_strategies ~seed ())
  in
  {
    label = join.label;
    goal_size = List.length join.pairs;
    product_size =
      float_of_int (Relation.cardinality join.r)
      *. float_of_int (Relation.cardinality join.p);
    join_ratio = Universe.join_ratio universe;
    n_classes = Universe.n_classes universe;
    measurements;
  }

type setting = { name : string; scale : int; seed : int }

let run ?builder setting =
  let db = Tpch.generate ~seed:setting.seed ~scale:setting.scale () in
  List.map (run_join ?builder ~seed:setting.seed) (Tpch.joins db)

let interactions_chart ~title results =
  Chart.render_grouped ~title ~value_label:"number of interactions"
    (List.map
       (fun r ->
         {
           Chart.label =
             Printf.sprintf "%s (|D|=%.2g, ratio %.3f)" r.label r.product_size
               r.join_ratio;
           values =
             List.map
               (fun (m : Runner.measurement) -> (m.strategy, m.interactions))
               r.measurements;
         })
       results)

let time_table ~paper results =
  let headers = "goal" :: Paper.strategy_order @ [ "paper (same order)" ] in
  let rows =
    List.mapi
      (fun i r ->
        let cell n =
          match
            List.find_opt
              (fun (m : Runner.measurement) -> m.strategy = n)
              r.measurements
          with
          | Some m -> Printf.sprintf "%.3f" m.seconds
          | None -> "n/a"
        in
        List.concat
          [
            [ r.label ];
            List.map cell Paper.strategy_order;
            [
              String.concat "/"
                (Array.to_list (Array.map (Printf.sprintf "%.3f") paper.(i)));
            ];
          ])
      results
  in
  Table.render ~headers rows
