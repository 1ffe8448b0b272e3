(** The most specific join predicate T (§3).

    T(t) = {(A_i, B_j) | tR[A_i] = tP[B_j]} is the paper's elementary tool:
    a predicate θ selects t iff θ ⊆ T(t), so all version-space reasoning
    reduces to subset tests between T-signatures. *)

(** [of_tuples omega tR tP] is T((tR, tP)).  NULL cells never match. *)
val of_tuples :
  Omega.t -> Jqi_relational.Tuple.t -> Jqi_relational.Tuple.t -> Jqi_util.Bits.t

(** [of_codes omega cr cp] is {!of_tuples} over {!Jqi_relational.Dict}
    code vectors: equal codes are join-matches, negative codes (NULL/NaN)
    match nothing.  Raises [Invalid_argument] when vector lengths differ
    from the arities of [omega]. *)
val of_codes : Omega.t -> int array -> int array -> Jqi_util.Bits.t

(** [of_kcodes omega codes] is the k-ary T-signature of one code vector
    per relation: a bit for every attribute pair of a block of [omega]
    whose codes match (negative codes match nothing).  For k = 2 this is
    bit-identical to {!of_codes}.  Raises [Invalid_argument] on a wrong
    relation count or vector length. *)
val of_kcodes : Omega.t -> int array array -> Jqi_util.Bits.t

(** {!of_kcodes} over raw tuples with [Value.eq] semantics. *)
val of_ktuples : Omega.t -> Jqi_relational.Tuple.t array -> Jqi_util.Bits.t

(** [of_signatures omega sigs] is T(U) = ∩ sigs, and Ω when [sigs] is empty
    (the convention §3.3 needs for samples without positive examples). *)
val of_signatures : Omega.t -> Jqi_util.Bits.t list -> Jqi_util.Bits.t

(** [selects theta sig] iff θ ⊆ T(t) — whether θ selects a tuple with the
    given signature. *)
val selects : Jqi_util.Bits.t -> Jqi_util.Bits.t -> bool
