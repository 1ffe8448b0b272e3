(* Figure 7: the synthetic experiments (§5.2).

   For each generator configuration, draw fresh instances, use the
   non-nullable predicates of each size 0..4 as goal predicates, run every
   strategy, and average — the paper averages over 100 runs; the number of
   instances and the number of goals sampled per size are parameters so the
   quick bench stays quick. *)

module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Universe = Jqi_core.Universe
module Chart = Jqi_util.Chart
module Table = Jqi_util.Ascii_table
module Synth = Jqi_synth.Synth

type size_result = {
  goal_size : int;
  n_goals : int;  (* goals actually exercised across all instances *)
  measurements : Runner.measurement list;  (* averaged *)
}

type config_result = {
  config : Synth.config;
  product_size : float;
  join_ratio : float;  (* averaged over instances *)
  by_size : size_result list;
}

let max_goal_size = 4

(* [runs] = independently generated instances; [goals_per_size] caps how
   many distinct goal predicates of each size are exercised per instance
   (None = all of them, the paper's setting). *)
let run ?(builder = fun rels -> Universe.build rels) ?(seed = 1) ?(runs = 10)
    ?goals_per_size config =
  let prng = Prng.create seed in
  let per_size = Array.make (max_goal_size + 1) [] in
  let ratios = ref [] in
  let goal_counts = Array.make (max_goal_size + 1) 0 in
  for _ = 1 to runs do
    let r, p = Synth.generate prng config in
    let universe = builder [ r; p ] in
    ratios := Universe.join_ratio universe :: !ratios;
    for size = 0 to max_goal_size do
      let goals = Synth.goals_of_size universe ~size in
      let goals =
        match goals_per_size with
        | None -> goals
        | Some k ->
            let arr = Prng.shuffle prng (Array.of_list goals) in
            Array.to_list (Array.sub arr 0 (min k (Array.length arr)))
      in
      List.iter
        (fun goal ->
          goal_counts.(size) <- goal_counts.(size) + 1;
          let ms =
            Runner.run_goal universe ~goal
              (Runner.paper_strategies ~seed:(Prng.next_int prng land 0xFFFF) ())
          in
          per_size.(size) <- ms :: per_size.(size))
        goals
    done
  done;
  {
    config;
    product_size = float_of_int (config.rows * config.rows);
    join_ratio = Jqi_util.Stats.mean (Array.of_list !ratios);
    by_size =
      List.init (max_goal_size + 1) (fun size ->
          {
            goal_size = size;
            n_goals = goal_counts.(size);
            measurements = Runner.average per_size.(size);
          });
  }

let interactions_chart result =
  Chart.render_grouped
    ~title:
      (Fmt.str "Interactions vs goal size, config %a (join ratio %.3f)"
         Synth.pp_config result.config result.join_ratio)
    ~value_label:"avg number of interactions"
    (List.map
       (fun s ->
         {
           Chart.label =
             Printf.sprintf "|goal| = %d (%d goals)" s.goal_size s.n_goals;
           values =
             List.map
               (fun (m : Runner.measurement) -> (m.strategy, m.interactions))
               s.measurements;
         })
       result.by_size)

let time_table ~paper result =
  let headers = "|goal|" :: Paper.strategy_order @ [ "paper (same order)" ] in
  let rows =
    List.map
      (fun s ->
        let cell n =
          match
            List.find_opt
              (fun (m : Runner.measurement) -> m.strategy = n)
              s.measurements
          with
          | Some m -> Printf.sprintf "%.3f" m.seconds
          | None -> "n/a"  (* no goal of this size occurred in the sampled runs *)
        in
        List.concat
          [
            [ string_of_int s.goal_size ];
            List.map cell Paper.strategy_order;
            [
              String.concat "/"
                (Array.to_list
                   (Array.map (Printf.sprintf "%.3f") paper.(s.goal_size)));
            ];
          ])
      result.by_size
  in
  Table.render ~headers rows
