(** Candidate variable orderings for Leapfrog Triejoin.

    Triejoin is worst-case optimal under {e any} total order of the join
    variables, but constant factors swing wildly with the order: binding
    low-cardinality, high-degree variables first prunes the search tree
    near the root.  This module enumerates a small deduplicated set of
    deterministic candidate orders over a {!Leapfrog.var} array — the
    search space the bench sweeps and the engine's default pick comes
    from.  Each order is a permutation of variable indexes,
    directly usable as [Leapfrog.join ~order]. *)

(** Candidate orders, deduplicated, the default pick first: ascending
    cardinality, then descending degree, then discovery (identity)
    order.  Always non-empty; a single candidate means the heuristics
    agree. *)
val candidates : Leapfrog.var array -> int array list

(** The default order: ascending cardinality. *)
val default : Leapfrog.var array -> int array
