(** Strategies for presenting tuples to the user (§4).

    A strategy maps the current state to the class it wants labeled next;
    [None] means no informative tuple remains (halt condition Γ). *)

type t

val make : string -> (State.t -> int option) -> t
val name : t -> string
val choose : t -> State.t -> int option

(** RND: a uniformly random informative tuple. *)
val rnd : Jqi_util.Prng.t -> t

(** BU, Algorithm 2: informative tuple with minimal |T(t)|. *)
val bu : t

(** TD, Algorithm 3: ⊆-maximal signatures while no positive example
    exists, then BU. *)
val td : t

(** L1S, Algorithm 4: one-step lookahead skyline (fast engine). *)
val l1s : t

(** L2S, Algorithm 6: two-step lookahead skyline (fast engine). *)
val l2s : t

(** LkS for arbitrary k ≥ 1 (the paper's generalization remark).  Raises
    [Invalid_argument] on k < 1. *)
val lks : int -> t

(** LkS over the reference lookahead engine ([Entropy.reference_k]) — the
    differential oracle the fast strategies are tested against.  Raises
    [Invalid_argument] on k < 1. *)
val lks_reference : int -> t

(** IGS (extension, cf. §7 future work): Monte-Carlo information gain —
    samples predicates uniformly from C(S) and asks about the tuple with
    the most balanced selection probability. *)
val igs : ?samples:int -> Jqi_util.Prng.t -> t

(** Hybrid (extension): TD while no positive example exists, then L2S —
    most of the lookahead's interaction savings at a fraction of the
    cost. *)
val hybrid : t

(** The paper's five strategies: RND, BU, TD, L1S, L2S. *)
val all : ?prng_seed:int -> unit -> t list

(** Strategy from its CLI/protocol spelling (case-insensitive): bu, td,
    l1s, l2s, hybrid, rnd, igs.  [seed] feeds the PRNG of the randomized
    strategies.  [None] on unknown names. *)
val of_name : ?seed:int -> string -> t option
