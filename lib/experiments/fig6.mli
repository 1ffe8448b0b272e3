(** Figure 6 driver: the five TPC-H goal joins at a given scale, every
    strategy, interactions and times. *)

type join_result = {
  label : string;
  goal_size : int;
  product_size : float;
  join_ratio : float;
  n_classes : int;
  measurements : Runner.measurement list;
}

type setting = { name : string; scale : int; seed : int }

val run :
  ?builder:
    (Jqi_relational.Relation.t list -> Jqi_core.Universe.t) ->
  setting -> join_result list

(** Figure 6a/6b as an ASCII bar chart. *)
val interactions_chart : title:string -> join_result list -> string

(** Figure 6c/6d with the paper's times as the last column (rows in
    [Paper.strategy_order] order). *)
val time_table : paper:float array array -> join_result list -> string
