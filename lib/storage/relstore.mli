(** Paged relation store: one relation in one heap file, dict-coded.

    The heap holds two record kinds in one append-only stream:
    ['D'] records intern a distinct cell value (its store code is its
    order of appearance — dense, first-occurrence order), and ['R']
    records encode one row as varint store codes (with NULL and NaN
    inlined, since they never intern). A ['D'] record always precedes
    the first ['R'] that references it, so {!open_file} rebuilds the
    whole in-memory state — value dictionary and row-id table — in a
    single streaming scan. The name and schema live in the heap's meta
    page.

    {!relation} wraps a store as a [Relation.t] with the [Paged]
    backend: scans stream off the heap under the buffer-pool budget,
    and the coded access lets [Dict.iter_encoded] translate store
    codes instead of re-hashing cells — making universe builds over a
    paged relation byte-identical to (and nearly as fast as) the
    in-memory path.

    Stores are single-writer: load first, then share read-only (reads
    are safe concurrently once loading is done — the buffer pool
    latches page access). *)

type t

val create :
  ?page_size:int -> ?pool_frames:int -> path:string -> name:string ->
  Jqi_relational.Schema.t -> t
(** Create an empty store at [path] (truncating). *)

val open_file : ?pool_frames:int -> string -> t
(** Reopen a store; one streaming scan rebuilds dictionary and row
    ids. Raises {!Pager.Bad_file} on a foreign or corrupt file. *)

val name : t -> string
val schema : t -> Jqi_relational.Schema.t
val path : t -> string
val heap : t -> Heap.t
val pool : t -> Buffer_pool.t

val append_row : t -> Jqi_relational.Tuple.t -> unit
(** Raises [Invalid_argument] on an arity mismatch, or when a single
    cell's encoding exceeds {!Heap.max_record}. *)

val row_count : t -> int
val distinct_values : t -> int

(** The cell value a store code interns (codes are dense, so any
    [0 <= c < distinct_values] is valid). *)
val value_of_code : t -> int -> Jqi_relational.Value.t
val get_row : t -> int -> Jqi_relational.Tuple.t

val iter_rows : t -> (int -> Jqi_relational.Tuple.t -> unit) -> unit
(** Stream rows in order; one heap scan, one page pin per record. *)

val apply_delta :
  t -> adds:Jqi_relational.Tuple.t array -> removed:int array -> unit
(** Apply one churn batch in place: tombstone the rows at the (sorted
    ascending, pre-delta) indexes [removed] in the heap, drop them from
    the row-id table, then append [adds] at the tail and sync.  Row
    indexes re-pack: survivors keep their relative order, adds follow —
    the exact sequence a reopen scan rebuilds.  ['D'] records are never
    deleted (store codes are minted forever).  The row-id table is the
    store's only record of heap rids: a removed row's rid leaves it, and
    {!Heap.delete} may later reissue that slot to an append. *)

val delete_row : t -> int -> unit
(** {!apply_delta} with a single removed row index. *)

val relation : t -> Jqi_relational.Relation.t
(** Wrap as a [Paged] relation. Take it after loading finishes: the
    row count is snapshotted here. The relation's closures keep the
    store (and its file descriptor) alive.  The backend supports
    [Relation.apply_delta], which mutates this store in place and
    invalidates earlier wrappings (their snapshotted row counts go
    stale). *)

val sync : t -> unit
val close : t -> unit

(** {2 Backend selection for loaders (CLI / bench / server)} *)

type backend =
  | Mem  (** today's in-memory arrays *)
  | Paged of { frames : int; dir : string option }
      (** heap-file stores under a [frames]-page buffer pool; files go
          to [dir] (kept) or fresh temp files (one per relation) *)

val default_frames : int
(** 256 — the default [--buffer-pages]. *)

val backend_of_string : frames:int -> string -> backend option
(** ["mem"] or ["paged"] (case-insensitive). *)

val backend_to_string : backend -> string

val load_csv :
  ?sep:char -> ?schema:Jqi_relational.Schema.t -> ?page_size:int -> ?pool_frames:int ->
  dest:string -> name:string -> string -> t
(** Stream a CSV file straight into heap pages via {!Csv.load_into} —
    the full row list is never materialized. *)

val of_relation :
  ?page_size:int -> ?pool_frames:int -> dest:string -> Jqi_relational.Relation.t -> t
(** Copy any relation into a fresh paged store (used to A/B backends
    over generated data). *)

val load_csv_relation :
  ?sep:char -> ?schema:Jqi_relational.Schema.t -> backend:backend -> name:string -> string ->
  Jqi_relational.Relation.t
(** The one loader the CLI, server and bench share: [Mem] defers to
    {!Csv.load_relation}; [Paged] streams into a store and wraps it. *)
