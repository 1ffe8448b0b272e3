(** Mutable inference state over the signature quotient.

    Holds the sample in the compact form the Lemma 3.3/3.4
    characterizations need — T(S+) and the negative signatures — and
    answers all certain/informative queries of §3.4 in polynomial time
    (Theorem 3.5). *)

(** Raised by [label] when the user labels against a certain label —
    Algorithm 1's error path (lines 6-7). *)
exception Inconsistent of { class_id : int; label : Sample.label }

type t

val create : Universe.t -> t

(** Independent copy (for lookahead simulations). *)
val copy : t -> t

val universe : t -> Universe.t

(** T(S+); Ω while no positive example was given. *)
val tpos : t -> Jqi_util.Bits.t

(** Distinct signatures of the negative examples. *)
val negatives : t -> Jqi_util.Bits.t list

(** Chronological (class, label) interactions. *)
val history : t -> (int * Sample.label) list

val n_interactions : t -> int
val label_of : t -> int -> Sample.label option

(** Lemma 3.4: Cert− membership. *)
val certain_neg_sig :
  tpos:Jqi_util.Bits.t -> negs:Jqi_util.Bits.t list -> Jqi_util.Bits.t -> bool

val certain_label_sig :
  tpos:Jqi_util.Bits.t -> negs:Jqi_util.Bits.t list -> Jqi_util.Bits.t ->
  Sample.label option

(** The certain label of a class, if any. *)
val certain_label : t -> int -> Sample.label option

(** Informative = not labeled and not certain (§3.4). *)
val informative : t -> int -> bool

val informative_classes : t -> int list
val has_informative : t -> bool
val has_positive : t -> bool

(** Record a user label.  Raises [Inconsistent] when it contradicts a
    certain label. *)
val label : t -> int -> Sample.label -> unit

val uninf_tuples : t -> int

(** Hypothetical sample after adding labeled signatures; pure. *)
val extend_virtual :
  t -> (Jqi_util.Bits.t * Sample.label) list ->
  Jqi_util.Bits.t * Jqi_util.Bits.t list

(** Canonical form of a hypothetical sample: (T(S+), sorted antichain of
    ⊆-maximal negative signatures restricted to T(S+)).  Equal keys have
    equal Cert+/Cert− sets, hence equal informative classes and equal
    minimax/lookahead values — the memoization key of both the [Minimax]
    solver and the fast lookahead engine. *)
module Key : sig
  type t = { tpos : Jqi_util.Bits.t; negs : Jqi_util.Bits.t list }

  val canonical : tpos:Jqi_util.Bits.t -> negs:Jqi_util.Bits.t list -> t
  val equal : t -> t -> bool
  val hash : t -> int
end

(** A hypothetical sample extension with its informative classes maintained
    incrementally (monotone certainty: extensions only shrink the set). *)
type view = {
  vtpos : Jqi_util.Bits.t;
  vnegs : Jqi_util.Bits.t list;
  vinf : int list;   (** informative class ids, ascending *)
  vinf_tuples : int; (** count-weighted [vinf] *)
}

(** The view of the current sample. *)
val view : t -> view

(** Extend a view by one labeled signature, re-testing only the classes
    informative in the view: one subset test per class for a negative
    label (T(S+) is unchanged), a full certain test against the shrunk
    T(S+) for a positive one. *)
val view_extend : t -> view -> Jqi_util.Bits.t * Sample.label -> view

(** [Key.canonical] of a view's sample. *)
val view_key : view -> Key.t

(** The current answer, T(S+) (§3.3). *)
val inferred : t -> Jqi_util.Bits.t

(** §3.1 consistency of the accumulated sample. *)
val consistent : t -> bool

val pp : Format.formatter -> t -> unit
