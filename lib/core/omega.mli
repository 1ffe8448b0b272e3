(** The attribute-pair universe Ω (§2, generalized to k relations).

    Binary: Ω = attrs(R) × attrs(P).  K-ary: for relations R_0..R_{k-1}
    and an edge set E of relation pairs i < j (all pairs by default),
    Ω = ⋃_{(i,j)∈E} attrs(R_i) × attrs(R_j), one block of bits per edge
    in lexicographic (i,j) order.  For k = 2 the single block (0,1) sits
    at offset 0, so binary predicates keep their historical [i*m + j]
    bit positions.  The chain E = {(0,1), (1,2), …} is the universe of
    join paths (the paper's §7).

    Join predicates θ ⊆ Ω are bitsets of width |Ω|; this module owns the
    bijection between bit positions and attribute pairs, plus naming and
    pretty-printing. *)

type t

(** [create ~n ~m ()] builds the binary Ω for relations with [n] and [m]
    attributes.  Default attribute names are A1..An and B1..Bm, as in the
    paper.  Raises [Invalid_argument] if an arity is non-positive or a
    name array has the wrong length. *)
val create :
  ?r_names:string array -> ?p_names:string array -> n:int -> m:int -> unit -> t

(** Binary Ω for two concrete schemas, using their column names. *)
val of_schemas : Jqi_relational.Schema.t -> Jqi_relational.Schema.t -> t

(** [create_kary names] builds Ω over k = [Array.length names] relations
    whose attribute names are given per relation.  [rel_names] (default
    R1..Rk) qualify attributes when printing k-ary predicates.  [edges]
    (default: every pair) lists the relation pairs (i, j), i < j, that
    get a block; their order does not matter.  Raises [Invalid_argument]
    when k < 2, any relation has no attributes, or [edges] is empty,
    repeats a pair, or holds a pair with i ≥ j or out of range. *)
val create_kary :
  ?rel_names:string array -> ?edges:(int * int) list -> string array array -> t

(** K-ary Ω for named schemas, in relation order. *)
val of_schemas_kary :
  ?edges:(int * int) list -> (string * Jqi_relational.Schema.t) list -> t

(** |Ω| — the bitset width: Σ_{(i,j)∈E} n_i·n_j (= n·m when binary). *)
val width : t -> int

(** The present blocks (i, j, bit offset), in lexicographic (i,j) = bit
    order.  Shared, not copied: callers iterate it and must not mutate
    it. *)
val blocks : t -> (int * int * int) array

(** Number of relations k (2 for every binary constructor). *)
val n_relations : t -> int

(** Arity of relation [i]; 0-based. *)
val arity_at : t -> int -> int

(** [attr_name t i a] is the name of attribute [a] of relation [i]. *)
val attr_name : t -> int -> int -> string

val rel_name : t -> int -> string

(** {2 Binary views}

    These raise [Invalid_argument] on a k-ary universe (k ≠ 2); callers
    on the k-ary path use the [k*] bijection below. *)

val left_arity : t -> int
val right_arity : t -> int

(** [index t i j] is the bit position of the pair (A_i, B_j); 0-based. *)
val index : t -> int -> int -> int

(** Inverse of [index]. *)
val pair : t -> int -> int * int

val r_name : t -> int -> string
val p_name : t -> int -> string

(** Predicate from 0-based (left attr, right attr) index pairs. *)
val of_pairs : t -> (int * int) list -> Jqi_util.Bits.t

(** Index pairs of a predicate, in bit order. *)
val to_pairs : t -> Jqi_util.Bits.t -> (int * int) list

(** Predicate from attribute-name pairs; raises on unknown names. *)
val of_names : t -> (string * string) list -> Jqi_util.Bits.t

(** {2 K-ary bijection} *)

(** Bit offset of block (i,j), i < j; raises on a bad or absent block. *)
val block_offset : t -> int -> int -> int

(** [kindex t (i,a) (j,b)] is the bit of attribute [a] of relation [i]
    paired with attribute [b] of relation [j]; the pair is normalized so
    argument order does not matter.  Raises on i = j, out-of-range
    positions or an absent block. *)
val kindex : t -> int * int -> int * int -> int

(** Inverse of [kindex]: bit → ((i,a),(j,b)) with i < j. *)
val kpair : t -> int -> (int * int) * (int * int)

val to_kpairs : t -> Jqi_util.Bits.t -> ((int * int) * (int * int)) list

(** Predicate from name pairs where each side is "rel.attr" or a bare
    attribute name that is unique across all relations.  Raises
    [Invalid_argument] on unknown names, an ambiguous bare attribute, a
    qualifier naming more than one relation, or a pair whose block is
    absent. *)
val of_names_kary : t -> (string * string) list -> Jqi_util.Bits.t

(** The most general predicate ∅. *)
val empty : t -> Jqi_util.Bits.t

(** The most specific predicate Ω. *)
val full : t -> Jqi_util.Bits.t

(** Print a predicate as {(A1,B3), …} (binary, attribute names) or
    {(R1.a,R3.b), …} (k-ary, qualified). *)
val pp_pred : t -> Format.formatter -> Jqi_util.Bits.t -> unit

val pred_to_string : t -> Jqi_util.Bits.t -> string

(** All 2^|Ω| predicates — exponential; brute-force oracles only. *)
val all_predicates : t -> Jqi_util.Bits.t list
