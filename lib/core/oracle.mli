(** User models for the interactive scenario (§3.2). *)

type t

val name : t -> string

(** Label the given class of the universe. *)
val label : t -> Universe.t -> int -> Sample.label

(** The paper's user: labels t positive iff θG ⊆ T(t). *)
val honest : goal:Jqi_util.Bits.t -> t

(** Wraps an oracle to answer wrongly with probability [error_rate];
    exercises robustness of the inference loop. *)
val noisy : Jqi_util.Prng.t -> error_rate:float -> t -> t

(** Majority vote of [votes] (odd) independent draws from the base oracle —
    the crowdsourcing redundancy scheme; with a noisy base the effective
    error rate drops binomially.  Raises [Invalid_argument] on even or
    non-positive vote counts. *)
val majority : votes:int -> t -> t
