(** The quotient of the Cartesian product D = R_0 × … × R_{k-1} by the
    T-signature (k = 2 in the paper; k-ary per ROADMAP item 2).

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

(** Raised by {!build_kary} when the distinct-profile walk exceeds its
    work limit — the typed refusal for products whose quotient is still
    too large to enumerate. *)
exception Kary_too_large of { work : int; limit : int }

(** Build the quotient of R × P.  The default constructor — an alias for
    {!build_quotient}.  Raises [Invalid_argument] on an empty product. *)
val build : Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> t

(** The reference per-pair scan: one [Tsig.of_tuples] call per tuple of
    R × P, O(|R|·|P|·|Ω|).  Kept as the executable definition and the
    differential oracle for the quotient builders, which must produce
    identical universes (classes, counts and representatives). *)
val build_naive : Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> t

(** Profile-quotient construction: interns every cell of both relations
    into a shared {!Jqi_relational.Dict} code space and groups rows by
    code vector, then computes the classes of the distinct-profile
    product with an inverted kernel: P's profiles are indexed by code,
    each R-profile follows the postings of its codes, and only the
    profile pairs matching at least one attribute are looked up — the
    rest fall into the empty-signature class by arithmetic.  Cost
    O((|R|+|P|)·arity + postings visited + touched pairs · words).
    Identical output to {!build_naive}; representatives are the
    lexicographically smallest member pair of each class. *)
val build_quotient :
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> t

(** Approximate universe for products too large to scan: [pairs] uniform
    random tuple pairs instead of the full R × P.  Signatures absent from
    the sample are invisible, so inference is only guaranteed
    instance-equivalent on the sampled sub-product.  Representatives are
    the lexicographically smallest {e sampled} member of each class, so
    the result depends only on the sampled set, not the PRNG draw order. *)
val build_sampled :
  Jqi_util.Prng.t -> pairs:int ->
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> t

(** {2 K-ary construction}

    The universe of D = R_0 × … × R_{k-1} with signatures over every
    cross-relation attribute pair ({!Omega.create_kary} layout).  On two
    relations all of these agree byte-for-byte with their binary
    counterparts. *)

(** K-ary quotient: per-relation profile grouping, then a trie walk over
    distinct-profile k-tuples in the leapfrog spirit — whole suffix
    subtrees that can contribute no further cross bits are folded in via
    precomputed suffix universes instead of being enumerated, and
    pairwise block signatures are cached per profile pair.  Identical
    output to {!build_kary_naive}; byte-identical to {!build} on k = 2.
    Raises {!Kary_too_large} when the walk exceeds [limit] (default
    2·10⁷) class merges, and [Invalid_argument] on fewer than two
    relations or an empty product. *)
val build_kary : ?limit:int -> Jqi_relational.Relation.t list -> t

(** The reference k-way scan — one signature per raw tuple of ∏ R_i.
    Exponential; the differential oracle for {!build_kary}. *)
val build_kary_naive : Jqi_relational.Relation.t list -> t

(** K-ary {!build_sampled}: [tuples] uniform random row vectors.  On two
    relations it draws the same PRNG sequence as [build_sampled], so the
    two agree given equal seeds.  Raises [Invalid_argument] on a
    non-positive sample size, fewer than two relations, or an empty
    relation. *)
val build_sampled_kary :
  Jqi_util.Prng.t -> tuples:int -> Jqi_relational.Relation.t list -> t

(** Assemble a binary universe directly from (signature, multiplicity,
    representative) triples; duplicate signatures are merged (keeping the
    first representative).  Meant for tests and the minimax examples. *)
val of_signature_list :
  ?relations:Jqi_relational.Relation.t * Jqi_relational.Relation.t ->
  Omega.t ->
  (Jqi_util.Bits.t * int * (int * int)) list ->
  t

(** K-ary {!of_signature_list}: representatives carry one row index per
    relation of [omega].  Raises [Invalid_argument] on a representative
    or relation count mismatching [omega]. *)
val of_ksignature_list :
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
    min-merge — with a targeted repair pass when a deletion hits a
    representative row.  The result is {e byte-identical} to a
    from-scratch {!build}/{!build_kary} over the post-delta relations
    (same classes, counts and representatives; pinned differentially in
    test/test_churn.ml), at a per-batch cost proportional to the
    changed rows' profile combinations rather than the whole product —
    `bench churn` measures the gap and the crossover batch size.

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

(** The relation pair, when the universe is binary (k = 2) and was built
    from actual relations; [None] on k-ary universes. *)
val relations :
  t -> (Jqi_relational.Relation.t * Jqi_relational.Relation.t) option

(** All k relations, when the universe was built from actual relations. *)
val relation_array : t -> Jqi_relational.Relation.t array option

val signature : t -> int -> Jqi_util.Bits.t
val count : t -> int -> int

(** Representative tuple pair of a class, when the universe is binary and
    was built from actual relations; [None] on k-ary universes (use
    {!representative_rows}). *)
val representative :
  t -> int -> (Jqi_relational.Tuple.t * Jqi_relational.Tuple.t) option

(** Representative tuples of a class, one per relation, when the universe
    was built from actual relations. *)
val representative_rows : t -> int -> Jqi_relational.Tuple.t array option

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
