(** The lattice of join predicates (§4.2, Figure 4). *)

(** Signatures with no strict superset among the given ones — the nodes TD
    visits first. *)
val maximal_signatures : Jqi_util.Bits.t list -> Jqi_util.Bits.t list

val minimal_signatures : Jqi_util.Bits.t list -> Jqi_util.Bits.t list

(** [non_nullable sigs θ]: does θ select at least one tuple, i.e. is it a
    subset of some signature? *)
val non_nullable : Jqi_util.Bits.t list -> Jqi_util.Bits.t -> bool

val non_nullable_count : Jqi_util.Bits.t list -> int

(** Hasse cover edges (lo, hi) between the given nodes. *)
val covers :
  Jqi_util.Bits.t list -> (Jqi_util.Bits.t * Jqi_util.Bits.t) list

(** Graphviz rendering of the non-nullable lattice plus Ω, boxing the
    nodes that have corresponding tuples — the shape of Figure 4. *)
val to_dot : Omega.t -> Universe.t -> string
