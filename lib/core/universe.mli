(** The quotient of the Cartesian product D = R_0 × … × R_{k-1} by the
    T-signature (k = 2 in the paper; any k >= 2 here).

    Informativeness, certainty and selection depend only on T(t)
    (Lemmas 3.3/3.4), so tuples with equal signatures are interchangeable;
    the engine works on equivalence classes carrying multiplicities.  This
    matches the paper's "unique join predicates" discussion (§5.3) and is
    what makes TPC-H-sized products tractable. *)

type cls = {
  signature : Jqi_util.Bits.t;  (** T(t) for every tuple of the class *)
  count : int;  (** multiplicity in D *)
  rep : int array;  (** one representative row index per relation *)
}

type t

(** Raised by {!build} when a k ≥ 3 walk exceeds its work limit — the
    typed refusal for products whose quotient is still too large to
    enumerate. *)
exception Kary_too_large of { work : int; limit : int }

(** {2 Construction}

    Every builder takes the relations R_0, …, R_{k-1} in order (k ≥ 2)
    and produces signatures over every cross-relation attribute pair
    ({!Omega.of_schemas_kary} layout, relations named by
    [Relation.name]).  At k = 2 the layout is the paper's attrs(R) ×
    attrs(P), so a binary join is simply the two-element list.

    [edges], where a builder takes it, is {!Omega.create_kary}'s edge
    set: only those relation pairs get a block, so a predicate can only
    join along them.  The chain [[(0,1); (1,2); …]] makes the universe
    of join paths (the paper's §7): a path predicate selects a tuple iff
    every edge selects its pair, which is θ ⊆ T(t) over the
    concatenated blocks, so {!State}, {!Strategy} and {!Inference} run
    on it unchanged.  Raises [Invalid_argument] on an invalid edge
    set. *)

(** The quotient of R_0 × … × R_{k-1} (span [universe.build_quotient]
    at every k).  Interns every cell into a shared
    {!Jqi_relational.Dict} code space, groups each relation's rows by
    code vector, and runs one trie walk over distinct-profile prefixes.
    Each level indexes its relation's profiles by code and follows the
    postings of the prefix's codes along the edges into it, so only
    profiles sharing a code with the prefix are touched.  At the last
    level each touched profile is one class lookup and all untouched
    ones fall into the prefix's class by arithmetic; disconnected
    suffixes fold in via precomputed suffix universes.  At k = 2 the
    last level is the whole walk: cost
    O((|R|+|P|)·arity + postings visited + touched pairs · words).
    Raises {!Kary_too_large} when a k ≥ 3 walk exceeds [limit] (default
    2·10⁷) class merges; [limit] has no effect at k = 2.

    Identical output to {!build_kary_naive}: same classes and counts, and
    each representative is the lexicographically smallest member row
    vector of its class.  Raises [Invalid_argument] on fewer than two
    relations or an empty product. *)
val build :
  ?limit:int -> ?edges:(int * int) list -> Jqi_relational.Relation.t list -> t

(** The reference per-pair scan of R × P: one [Tsig.of_tuples] call per
    tuple, O(|R|·|P|·|Ω|).  Kept as the executable definition and the
    differential oracle for {!build} at k = 2. *)
val build_naive : Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> t

(** The reference k-way scan — one signature per raw tuple of ∏ R_i.
    Exponential in k; the differential oracle for {!build} at any k and
    any edge set. *)
val build_kary_naive :
  ?edges:(int * int) list -> Jqi_relational.Relation.t list -> t

(** Approximate universe for products too large to scan: [tuples] uniform
    random row vectors (one [Prng.int] per relation, in order) instead of
    the full product.  Signatures absent from the sample are invisible,
    so inference is only guaranteed instance-equivalent on the sampled
    sub-product.  Representatives are the lexicographically smallest
    {e sampled} member of each class, so the result depends only on the
    sampled set, not the PRNG draw order.  Raises [Invalid_argument] on a
    non-positive sample size, fewer than two relations, or an empty
    relation. *)
val build_sampled :
  Jqi_util.Prng.t -> tuples:int -> Jqi_relational.Relation.t list -> t

(** Assemble a universe directly from (signature, multiplicity,
    representative) triples, with one row index per relation of [omega]
    in each representative; duplicate signatures are merged (keeping the
    first representative).  Meant for tests and the minimax examples.
    Raises [Invalid_argument] on a representative or relation count
    mismatching [omega]. *)
val of_signature_list :
  ?relations:Jqi_relational.Relation.t array ->
  Omega.t ->
  (Jqi_util.Bits.t * int * int array) list ->
  t

(** {2 Incremental Ω maintenance under churn}

    [apply_delta u [(i, d); …]] folds each delta into the universe in
    list order: relation [i]'s removed rows re-join into their profile
    groups and decrement class multiplicities (classes reaching zero
    retire), added rows land in an existing signature class or mint a
    new one, and representatives are kept lexicographically smallest by
    min-merge — with a repair pass when a deletion hits a
    representative row.  Each pass is one run of {!build}'s walk, with
    relation [i]'s removed, added or post-delta profiles in its slot,
    and none of them is subject to a work limit.  The result is
    {e byte-identical} to a from-scratch {!build} over the post-delta
    relations (same classes, counts and representatives; pinned
    differentially in test/test_churn.ml), at a per-batch cost
    proportional to the changed rows' profile combinations rather than
    the whole product — `bench churn` measures the gap and the
    crossover batch size.

    A signature-interning cache (dictionary + per-row code vectors)
    rides along the universe chain, so only the first delta after a
    fresh build pays an encoding pass.  Deltas on [Paged] relations
    mutate the backing store in place (see {!Relation.apply_delta}) —
    the pre-delta universe's relations become stale views.

    Raises [Invalid_argument] when the universe was built without
    relations, on an unknown relation index, an arity-mismatched row, a
    remove matching no row, or a delta emptying the product. *)
val apply_delta : t -> (int * Jqi_relational.Delta.t) list -> t

val omega : t -> Omega.t
val classes : t -> cls array
val n_classes : t -> int
val cls : t -> int -> cls

(** |D|, the sum of class multiplicities. *)
val total_tuples : t -> int

(** Number of relations k of the underlying Ω. *)
val n_relations : t -> int

(** All k relations, in order, when the universe was built from actual
    relations. *)
val relations : t -> Jqi_relational.Relation.t array option

val signature : t -> int -> Jqi_util.Bits.t
val count : t -> int -> int

(** Representative tuples of a class, one per relation, when the
    universe was built from actual relations. *)
val representative : t -> int -> Jqi_relational.Tuple.t array option

(** Class of a signature, if any — binary search over the sorted class
    array, O(log classes). *)
val find_class : t -> Jqi_util.Bits.t -> int option

(** Classes whose signature contains θ — the classes θ selects. *)
val selected_classes : t -> Jqi_util.Bits.t -> int list

(** Instance equivalence (§3.3): θ1 and θ2 select the same classes of D. *)
val equivalent : t -> Jqi_util.Bits.t -> Jqi_util.Bits.t -> bool

(** Join ratio (§5.3): mean size of the distinct T-signatures in D. *)
val join_ratio : t -> float

(** The distinct signatures — the boxed lattice nodes of Figure 4. *)
val signatures : t -> Jqi_util.Bits.t list

val pp : Format.formatter -> t -> unit
