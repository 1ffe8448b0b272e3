(** The general inference algorithm (Algorithm 1).

    Repeats (strategy chooses an informative tuple → oracle labels it →
    state updates) until no informative tuple remains, then returns
    T(S+) — the most specific predicate consistent with the labels, which
    is instance-equivalent to the goal (§3.3). *)

(** Debug tracing source ("jqi.inference"): set it to [Debug] for one log
    line per question. *)
val log_src : Logs.src

type result = {
  strategy : string;
  predicate : Jqi_util.Bits.t;  (** the inferred T(S+) *)
  steps : (int * Sample.label) list;  (** chronological (class, label) *)
  n_interactions : int;
  elapsed : float;  (** wall-clock seconds for the whole loop *)
  halted : bool;  (** Γ reached (false iff the budget ran out) *)
  state : State.t;
}

(** Run Algorithm 1.  [max_interactions] bounds the number of questions;
    the run reports [halted = false] when it is hit.  [state] resumes an
    existing session (e.g. one reloaded via [Session.load]) instead of
    starting empty; its prior interactions are counted in the result. *)
val run :
  ?max_interactions:int -> ?state:State.t -> Universe.t -> Strategy.t ->
  Oracle.t -> result

(** §3.3 success criterion: the answer is instance-equivalent to the
    goal. *)
val verified : Universe.t -> goal:Jqi_util.Bits.t -> result -> bool

val pp : Omega.t -> Format.formatter -> result -> unit

(** One line per question (the k representative tuples or signature), then
    the inferred predicate. *)
val pp_transcript : Universe.t -> Format.formatter -> result -> unit
