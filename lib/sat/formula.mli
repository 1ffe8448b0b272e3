(** Propositional formulas and the Tseitin transform to CNF. *)

type t =
  | True
  | False
  | Var of int  (** >= 1 *)
  | Not of t
  | And of t list
  | Or of t list

(** Raises [Invalid_argument] below 1. *)
val var : int -> t

val neg : t -> t
val conj : t list -> t
val disj : t list -> t
val eval : bool array -> t -> bool

(** Equisatisfiable CNF with one auxiliary variable per internal node;
    models restricted to the original variables are models of the input.
    [min_vars] forces the CNF to mention at least that many variables so
    fixed-width model decoding works. *)
val to_cnf : ?min_vars:int -> t -> Cnf.t
