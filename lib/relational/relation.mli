(** Relation instances: a name, a schema, and rows in insertion order.
    Set semantics are applied explicitly by [Algebra.distinct].

    Rows live behind a storage {!Backend}: [Mem] is a plain array
    (zero-cost, the default everywhere); [Paged] is a record of
    closures provided by an out-of-core store (jqi.storage), keeping
    this tier free of IO while letting scans stream from disk. *)

(** Storage abstraction. *)
module Backend : sig
  (** Dictionary-coded access offered by stores that intern cell
      values on disk (jqi.storage's Relstore). [value] decodes a
      store-local code (0-based, dense, in first-occurrence =
      row-major order); [iter_codes f] calls [f row codes] for every
      row with the store codes of its cells, [-1] for uncodable cells
      (NULL/NaN). The [codes] buffer is reused between rows — copy it
      to retain. [Dict.iter_encoded] uses this to translate a whole
      file's codes through one table instead of re-hashing every
      cell. *)
  type coded = {
    distinct : int;  (** number of distinct codable values in the store *)
    value : int -> Value.t;
    iter_codes : (int -> int array -> unit) -> unit;
  }

  (** Closure interface an out-of-core store implements. [iter_rows f]
      calls [f i row] for [i] = 0..[n_rows]-1 in order; [get_row] is
      random access (one page fetch per call). [describe] names the
      store for diagnostics, e.g. ["paged:orders.jqh"]. *)
  type paged = {
    n_rows : int;
    get_row : int -> Tuple.t;
    iter_rows : (int -> Tuple.t -> unit) -> unit;
    coded : coded;
    describe : string;
    apply_delta : adds:Tuple.t array -> removed:int array -> paged;
        (** In-place churn: [f ~adds ~removed] deletes the rows at the
            (sorted ascending, pre-delta) indexes [removed] from the
            store, appends [adds] after the survivors, and returns a fresh
            [paged] view of the mutated store.  Destructive — earlier
            views over the same store are invalidated. *)
  }

  type t = Mem of Tuple.t array | Paged of paged

  val name : t -> string
  (** ["mem"] or ["paged"]. *)
end

type t

(** Raises [Invalid_argument] when a row's arity differs from the
    schema's. *)
val create : name:string -> schema:Schema.t -> Tuple.t array -> t

val of_list : name:string -> schema:Schema.t -> Tuple.t list -> t

(** Wrap an out-of-core store. The store's row arity is trusted. *)
val of_paged : name:string -> schema:Schema.t -> Backend.paged -> t

val backend : t -> Backend.t

val backend_name : t -> string
(** ["mem"] or ["paged"]. *)

val name : t -> string
val schema : t -> Schema.t

val rows : t -> Tuple.t array
(** On [Mem] the backing array itself (treat as read-only); on [Paged]
    a fresh, fully materialized copy — an escape hatch for callers
    that genuinely need an array (index build, join matrices). Scans
    should prefer {!iter}/{!iteri}/{!fold}, which stream. *)

val cardinality : t -> int
val row : t -> int -> Tuple.t
val arity : t -> int
val is_empty : t -> bool
val with_name : t -> string -> t

val with_rows : t -> Tuple.t array -> t
(** Always produces a [Mem] relation. *)

val fold : ('a -> Tuple.t -> 'a) -> 'a -> t -> 'a
val iter : (Tuple.t -> unit) -> t -> unit

val iteri : (int -> Tuple.t -> unit) -> t -> unit
(** One streaming pass in row order; on [Paged] each row costs one
    (usually cached) page fetch and rows are decoded one at a time. *)

val mem : t -> Tuple.t -> bool
val to_list : t -> Tuple.t list

module Tuple_set : Set.S with type elt = Tuple.t

val tuple_set : t -> Tuple_set.t

(** Same schema and same *set* of rows (order- and duplicate-
    insensitive). *)
val equal_contents : t -> t -> bool

(** Resolve a delta's by-value removes to concrete (pre-delta) row
    indexes, sorted ascending: one streaming scan assigns each remove
    the earliest still-unclaimed [Tuple.equal] occurrence.  Raises
    [Invalid_argument] when some remove matches no remaining row. *)
val resolve_removes : t -> Delta.t -> int array

(** Apply one churn batch: the removed rows disappear (survivors keep
    their relative order) and the added rows are appended after them.
    On [Mem] this builds a fresh backing array, leaving the input value
    untouched.  On [Paged] the store is mutated {e in place} (earlier
    views over the same store are invalidated).  Raises
    [Invalid_argument] on an arity-mismatched row or an unmatched
    remove. *)
val apply_delta : t -> Delta.t -> t

(** Streaming fingerprint accumulator — the guts of {!fingerprint},
    exposed so the server catalog can {e extend} a cached fingerprint
    with appended rows in O(|adds|) instead of re-hashing the whole
    relation.  FNV-1a is sequential, so for an append-only delta
    [render (feed_rows acc adds)] equals the from-scratch fingerprint of
    the grown relation, provided [acc] covered the old contents. *)
module Fp : sig
  type acc

  (** Accumulator over name, schema and all current rows —
    [render (of_relation t) = fingerprint t]. *)
  val of_relation : t -> acc

  (** Extend with rows appended after everything [acc] has seen. *)
  val feed_rows : acc -> Tuple.t array -> acc

  val render : acc -> string
end

(** Content fingerprint (FNV-1a 64-bit, rendered as 16 hex digits) over
    name, schema and all cells in row-major order.  Cells are hashed with
    type tags, so renderings that coincide (NULL vs the empty string) do
    not collide structurally.  Equal fingerprints identify relations for
    cache keying — e.g. the server's universe cache.  Streams, so a paged
    relation is fingerprinted from its heap-file scan and agrees with the
    [Mem] fingerprint of the same contents. *)
val fingerprint : t -> string

val pp : Format.formatter -> t -> unit

(** Print as an ASCII table on stdout. *)
val print : t -> unit
