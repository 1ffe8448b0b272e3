(** Entropy of informative tuples (§4.4).

    entropy_S(t) = (min(u⁺,u⁻), max(u⁺,u⁻)) where u^α is the number of
    tuples of D that become uninformative when t is labeled α, net of the
    queried tuple itself (the paper's counting in Figure 5 and the §4.4
    walk-through).  [entropy_k] generalizes the paper's entropy²
    (Algorithm 5) to arbitrary lookahead depth. *)

type t = { lo : int; hi : int }

(** (∞,∞): labeling this tuple can end the interaction (Algorithm 5,
    lines 3-5). *)
val infinity : t

(** [make a b] orders the components: (min, max). *)
val make : int -> int -> t

val is_infinite : t -> bool
val equal : t -> t -> bool

(** [dominates e e'] iff both components of [e] are ≥ those of [e']. *)
val dominates : t -> t -> bool

(** Entropies not dominated by any other entropy of the set. *)
val skyline : t list -> t list

(** The selection rule of Algorithms 4/6: the skyline element whose min is
    the maximal min (largest max as tie-break); [None] on empty input. *)
val best : t list -> t option

val pp : Format.formatter -> t -> unit

(** entropy¹ of a class. *)
val entropy1 : State.t -> int -> t

(** entropy^k of a class via the fast engine: incremental certainty
    tracking ([State.view]), canonical-state memoization ([State.Key]) and
    skyline shortcuts.  Exact — returns precisely [reference_k]'s value;
    k = 1 coincides with [entropy1], k = 2 is the paper's entropy²
    (Algorithm 5). *)
val entropy_k : State.t -> int -> int -> t

(** [entropy2 st cls] = [entropy_k st 2 cls]. *)
val entropy2 : State.t -> int -> t

(** Reference engine: the direct transcription of Algorithm 5, re-deriving
    certainty from scratch per branch.  Kept as the differential test
    oracle for [entropy_k]/[score]; cost grows as (informative classes)^k
    per class. *)
val reference_k : State.t -> int -> int -> t

(** [reference_k] at k = 1. *)
val reference1 : State.t -> int -> t

(** [score state ~k] is entropy^k of every informative class of [state],
    in ascending class order, sharing one memo across the whole round and
    pruning with Algorithm 4's selection rule: [None] marks a candidate
    whose entropy min is strictly below another candidate's — it can
    neither be the skyline best nor tie with it, so choosing over the
    [Some] entries picks exactly the class the reference engine would. *)
val score : State.t -> k:int -> (int * t option) list
