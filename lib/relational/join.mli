(** Equijoin and semijoin evaluation.

    Predicates are lists of column-index pairs [(i, j)] meaning
    R.col_i = P.col_j; the empty predicate denotes the Cartesian product
    (the paper's most general predicate ∅). *)

type predicate = (int * int) list

(** R ⋈_θ P by nested loops — the executable definition. *)
val equijoin_nested : Relation.t -> Relation.t -> predicate -> Relation.t

(** R ⋈_θ P with a hash index on P's join columns. *)
val equijoin : Relation.t -> Relation.t -> predicate -> Relation.t

(** R ⋉_θ P: rows of R with at least one θ-partner in P. *)
val semijoin : Relation.t -> Relation.t -> predicate -> Relation.t

val semijoin_nested : Relation.t -> Relation.t -> predicate -> Relation.t

(** Rows of R with no θ-partner. *)
val antijoin : Relation.t -> Relation.t -> predicate -> Relation.t

(** Resolve a predicate given by column names; raises on unknown names. *)
val predicate_of_names :
  Relation.t -> Relation.t -> (string * string) list -> predicate
