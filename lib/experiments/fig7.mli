(** Figure 7 driver: one synthetic configuration, goals of sizes 0..4,
    averaged over fresh instances. *)

type size_result = {
  goal_size : int;
  n_goals : int;  (** goals exercised across all instances *)
  measurements : Runner.measurement list;  (** averaged *)
}

type config_result = {
  config : Jqi_synth.Synth.config;
  product_size : float;
  join_ratio : float;  (** averaged over instances *)
  by_size : size_result list;
}

val max_goal_size : int

(** [runs] fresh instances; [goals_per_size] caps the distinct goals
    sampled per size and instance (omit for all of them — the paper's
    setting); [builder] selects the universe constructor (default
    [Jqi_core.Universe.build]). *)
val run :
  ?builder:
    (Jqi_relational.Relation.t list -> Jqi_core.Universe.t) ->
  ?seed:int -> ?runs:int -> ?goals_per_size:int -> Jqi_synth.Synth.config ->
  config_result

val interactions_chart : config_result -> string
val time_table : paper:float array array -> config_result -> string
