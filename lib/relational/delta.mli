(** First-class data churn: one batch of row insertions and deletions
    against a single relation.

    Deltas are pure data — no backend, no relation reference — so one
    value flows unchanged from a protocol frame through the catalog down
    to the storage engine.  Removals address rows {e by value}: each
    remove claims one occurrence of a [Tuple.equal] row (the earliest
    still-unclaimed one; see {!Relation.apply_delta}), which is the
    only addressing a wire client has. *)

type t = { adds : Tuple.t array; removes : Tuple.t array }

val empty : t
val of_lists : adds:Tuple.t list -> removes:Tuple.t list -> t
val is_empty : t -> bool

(** [|adds| - |removes|]: how the relation's cardinality changes. *)
val cardinality_shift : t -> int

(** Raises [Invalid_argument] when any add/remove row has a different
    arity than [arity]. *)
val check_arity : int -> t -> unit
