(** Minimality of semijoin predicates under positive-only samples — the
    paper's §7 coNP-complete "early attempt".  Minimality is of the
    selected set: no predicate covering the positives selects a strictly
    smaller subset of R.  Decided by enumeration (up to 20 attribute pairs),
    which also answers the paper's open uniqueness question per
    instance. *)

module Int_set : Set.S with type elt = int

val is_minimal :
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> Jqi_core.Omega.t ->
  pos:int list -> Jqi_util.Bits.t -> bool

(** The distinct minimal selected sets, one witness predicate each; a
    singleton means the minimal semijoin result is unique on this
    instance. *)
val minimal_results :
  Jqi_relational.Relation.t -> Jqi_relational.Relation.t -> Jqi_core.Omega.t ->
  pos:int list -> (Jqi_util.Bits.t * Int_set.t) list
