(** Query execution against a catalog of in-memory relations.

    INNER joins whose ON condition is a conjunction of column equalities
    run as hash joins (residual conditions filter); other joins fall back
    to filtered products.  Comparisons follow the inference layer's NULL
    semantics: NULL never compares equal or ordered to anything. *)

exception Error of string

type catalog = (string * Jqi_relational.Relation.t) list

(** Parse and execute.  Raises [Error] (parse errors included). *)
val query : catalog -> string -> Jqi_relational.Relation.t
