(** Multi-way equijoin over k relations, three ways: Leapfrog Triejoin,
    left-deep pairwise hash composition, and a deliberately naive nested
    loop kept forever as the differential oracle.

    A join problem is a relation array plus a list of column-equality
    constraints; the answer is the set of row-id vectors (one row index
    per relation, in relation order) whose cells satisfy every
    constraint under {!Value.eq} — NULL and NaN never match anything,
    themselves included, exactly as in signature computation.  All three
    evaluators implement this same semantics, so on any input their
    results are equal as multisets; [test/test_kary.ml] pins that
    equivalence on hundreds of random NULL- and duplicate-heavy
    instances, which is what lets the fast paths evolve safely.

    Equality constraints are closed under transitivity into join
    {e variables} (connected components of column positions).  The
    triejoin path builds one {!Trie} per relation — key columns are the
    relation's variables in the chosen variable ordering — and runs the
    classic leapfrog search (Veldhuizen, ICDT 2014) level by level.
    Orderings come from {!Ordering}; any permutation of the variables
    yields the same result set. *)

(** A column position: (relation index, column index). *)
type pos = int * int

(** One equality constraint between two column positions. *)
type eq = pos * pos

(** A join variable: a maximal set of positions connected by the
    constraints.  [card] is the smallest number of distinct joinable
    (non-NULL) codes over its columns — the branching-factor estimate
    variable-ordering heuristics work from. *)
type var = { positions : pos list; card : int }

(** The join variables of a problem, in discovery order (sorted by their
    smallest position).  Raises [Invalid_argument] on an out-of-range
    position. *)
val variables : Relation.t array -> eq list -> var array

(** Leapfrog intersection of ascending, duplicate-free integer arrays —
    the unary core of triejoin, exposed for tests.  The intersection of
    no sets is undefined and raises [Invalid_argument]. *)
val unary : int array list -> int list

(** The oracle: k nested loops over all row combinations, each
    constraint checked with {!Value.eq} on the actual cells.  O(product
    of cardinalities); never optimized, by design — the other two
    evaluators are tested against it. *)
val reference : Relation.t array -> eq list -> int array array

(** Left-deep pairwise composition: fold relations left to right,
    hash-joining each onto the accumulated prefix on the variables they
    share (a cross product when they share none).  The classic binary
    join plan a k-ary engine must beat. *)
val compose : Relation.t array -> eq list -> int array array

(** Full Leapfrog Triejoin.  [order] is a permutation of variable
    indexes into {!variables} (identity by default); raises
    [Invalid_argument] when it is not a permutation.  Worst-case optimal
    in the AGM bound, and never worse than the best binary plan on
    skewed instances. *)
val join : ?order:int array -> Relation.t array -> eq list -> int array array
