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
end

type t

(** Raises [Invalid_argument] when a row's arity differs from the
    schema's. *)
val create : name:string -> schema:Schema.t -> Tuple.t array -> t

val of_list : name:string -> schema:Schema.t -> Tuple.t list -> t

(** Wrap an out-of-core store. The store's row arity is trusted. *)
val of_paged : name:string -> schema:Schema.t -> Backend.paged -> t

val backend : t -> Backend.t

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

(** What a delta's resolution scan saw: the [read] leading rows of the
    pre-delta relation, hashed as one fingerprint polynomial over all of
    them and one over those that survive.  {!digest_after} reads it. *)
type scan

(** One applied churn batch: the post-delta relation [after], the
    pre-delta row indexes the removes claimed, ascending, the delta
    with its removes replaced by the claimed rows in that order
    ([delta.removes.(j)] was row [removed.(j)]), and what the resolution
    scan read.  [Universe.apply_delta] patches universes with it, and
    {!digest_after} updates a fingerprint with it, without touching
    the relation again. *)
type change = { after : t; removed : int array; delta : Delta.t; scan : scan }

(** Apply one churn batch: the removed rows disappear (survivors keep
    their relative order) and the added rows are appended after them.
    Each remove claims the earliest still-unclaimed [Tuple.equal] row,
    in one streaming scan that stops once every remove has a row (an
    insert-only delta reads no rows).  The whole delta is validated
    before the backend is written, which happens once.  On [Mem] this
    builds a fresh backing array, leaving the input value untouched.
    On [Paged] the store is mutated {e in place} (earlier views over
    the same store are invalidated).  Raises [Invalid_argument] on an
    arity-mismatched row or an unmatched remove. *)
val apply_delta : t -> Delta.t -> change

(** Content fingerprint over name, schema, row order and every cell,
    rendered as 16 hex digits.  Each row is hashed with FNV-1a, cells
    with type tags, so renderings that coincide (NULL vs the empty
    string) do not collide structurally; the row hashes are combined in
    order as a polynomial modulo the prime 2^61 - 1.  Equal fingerprints
    identify relations for cache keying — e.g. the server's universe
    cache.  Streams, so a paged relation is fingerprinted from its
    heap-file scan and agrees with the [Mem] fingerprint of the same
    contents.  [fingerprint t = digest_hex (digest t)]. *)
val fingerprint : t -> string

(** The state a fingerprint is rendered from, which a delta can update
    without reading the relation. *)
type digest

(** One streaming pass over the relation. *)
val digest : t -> digest

val digest_hex : digest -> string

(** [digest_after d c] is [digest c.after] when [d] is the digest of
    the relation [c] was applied to, in O(|adds| + log n): the rows past
    the resolution scan are not read.  Raises [Invalid_argument] when
    the row counts show [c] came from another version. *)
val digest_after : digest -> change -> digest

val pp : Format.formatter -> t -> unit

(** Print as an ASCII table on stdout. *)
val print : t -> unit
