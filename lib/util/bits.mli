(** Fixed-width immutable bitsets.

    The inference engine represents join predicates — subsets of
    Ω = attrs(R) × attrs(P) — as bitsets indexed by a fixed pair numbering,
    so that the subset and intersection tests dominating the inner loops of
    Lemmas 3.3/3.4 cost O(|Ω|/word_size). *)

type t

(** [empty w] is the empty set over a universe of [w] elements. *)
val empty : int -> t

(** [full w] is the complete universe of [w] elements. *)
val full : int -> t

(** Universe size this set was created with. *)
val width : t -> int

val mem : t -> int -> bool
val add : t -> int -> t
val remove : t -> int -> t
val union : t -> t -> t
val inter : t -> t -> t

(** [diff a b] is [a \ b]. *)
val diff : t -> t -> t

(** Complement within the universe. *)
val complement : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** [subset a b] is true iff [a ⊆ b]. *)
val subset : t -> t -> bool

(** [inter_subset a b c] is [subset (inter a b) c] without allocating the
    intersection. *)
val inter_subset : t -> t -> t -> bool

val disjoint : t -> t -> bool
val is_empty : t -> bool
val cardinal : t -> int
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** Elements in increasing order. *)
val elements : t -> int list

val of_list : int -> int list -> t

(** [build w f] marks bits through the setter passed to [f]; a single
    allocation regardless of how many bits are set.  The setter raises on
    out-of-range indexes. *)
val build : int -> ((int -> unit) -> unit) -> t

(** Bits per word of the representation: bit [i] lives in word
    [i / bits_per_word] at position [i mod bits_per_word]. *)
val bits_per_word : int

(** Number of words a set of width [w] occupies (at least one). *)
val word_count : int -> int

(** [of_words w words] is the set of width [w] whose word representation
    is [words] (copied), in the layout {!bits_per_word} describes.  Raises
    [Invalid_argument] on a word count other than [word_count w] or a bit
    set at a position >= [w]. *)
val of_words : int -> int array -> t

(** [word t j] is word [j] of [t]'s representation, in the layout
    {!bits_per_word} describes ([0 <= j < word_count (width t)]). *)
val word : t -> int -> int

(** All 2^|t| subsets of [t]. Exponential — only for brute-force oracles and
    the minimax strategy on tiny instances. *)
val subsets : t -> t list

val pp : Format.formatter -> t -> unit
val to_string : t -> string
