(** CONS⋉ — existence of a semijoin predicate consistent with a sample.
    NP-complete (Theorem 6.1); decided by SAT encoding, with a brute-force
    cross-check for small Ω. *)

(** Decide CONS⋉; returns a semantically verified witness predicate when
    consistent. *)
val solve :
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> Jqi_core.Omega.t ->
  Semijoin.sample -> Jqi_util.Bits.t option

val consistent :
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> Jqi_core.Omega.t ->
  Semijoin.sample -> bool

val consistent_brute :
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> Jqi_core.Omega.t ->
  Semijoin.sample -> bool
