(** CNF formulas in DIMACS-style integer encoding: a literal is a non-zero
    int ([v] positive, [-v] negated); variables are numbered from 1. *)

type clause = int array
type t

(** Raises [Invalid_argument] on literals out of [1..nvars]. *)
val create : nvars:int -> clause list -> t

val nvars : t -> int
val clauses : t -> clause list
val n_clauses : t -> int

(** Deduplicate literals; drop tautological clauses (x ∨ ¬x). *)
val simplify : t -> t

val satisfied : t -> bool array -> bool
