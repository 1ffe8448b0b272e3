(** Instance analysis: computes the structure §5.3 says governs question
    counts (join ratio, signature-size distribution, lattice shape) and
    turns its findings into a strategy recommendation. *)

type t = {
  product_size : int;
  n_classes : int;
  join_ratio : float;
  max_signature_size : int;
  size_histogram : (int * int) array;  (** (signature size, class count) *)
  n_maximal : int;  (** ⊆-maximal signatures — TD's opening pool *)
  has_empty_signature : bool;  (** BU can win in one question *)
  non_nullable_count : int option;  (** lattice size; None if too costly *)
  recommendation : string;
}

val analyze : Universe.t -> t
val pp : Format.formatter -> t -> unit
