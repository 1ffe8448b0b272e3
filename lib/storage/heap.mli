(** Heap file of variable-length records over a {!Buffer_pool}:
    tail-only appends plus tombstone deletion.

    Layout (see doc/STORAGE.md):
    - page 0 — [Meta]: first directory page id + an application meta
      blob (the relation store keeps the name/schema there);
    - directory pages — [Heap_dir]: a chained array of
      [(data page, n_live, free_bytes)] entries, giving free-space
      tracking and a live record count without touching data pages;
    - data pages — [Heap_data]: classic slotted pages, slot array
      growing from the header, record bytes packed from the end.

    Record ids ([rid]) encode [page_id lsl 16 lor slot] and stay stable
    while the record lives.  {!delete} tombstones a slot in place
    (offset 0xffff, length preserved); deleting a page's {e frontier}
    (last) record reclaims its bytes immediately and cascades over any
    trailing tombstones, so a cascaded slot index on the tail page may
    be reissued to a later append — a deleted rid must be forgotten by
    its owner.  Appends never fill mid-page holes: physical scan order
    therefore remains logical append order, the invariant Relstore's
    reopen scan relies on.  Full compaction is future work (no WAL).

    Appends and deletes are serialized by an internal latch; reads
    ({!get}, {!iter}) are latch-free and may run concurrently with each
    other once loading is done. Mutating concurrently with reads is not
    supported. *)

type t

val create_file : ?page_size:int -> ?pool_frames:int -> string -> t
(** Format a new heap file at [path] over a fresh {!Pager}/{!Buffer_pool}.
    The heap owns the pool: {!close} closes it. Raises [Invalid_argument]
    if the page size exceeds 32 KiB. *)

val open_file : ?pool_frames:int -> string -> t
(** Open a heap file written by {!create_file}; rebuilds the append
    state (record count, tail page) from the directory chain. Raises
    {!Pager.Bad_file} on a non-heap file. *)

val pool : t -> Buffer_pool.t

val max_record : t -> int
(** Largest record length that fits one data page. *)

val append : t -> string -> int
(** Append a record, returning its rid. Raises [Invalid_argument] when
    the record exceeds {!max_record}. *)

val get : t -> int -> string
(** Fetch a record by rid; raises [Invalid_argument] on an unknown or
    deleted rid. *)

val delete : t -> int -> unit
(** Delete the record named by a rid: tombstone its slot (frontier
    records are reclaimed immediately, cascading over trailing
    tombstones).  The rid becomes invalid — {!get} raises, {!iter}
    skips it — and on the tail page its slot index may later be
    reissued by {!append}.  Raises [Invalid_argument] on an unknown or
    already-deleted rid. *)

val iter : t -> (int -> string -> unit) -> unit
(** [iter t f] calls [f rid record] for every live record in append
    order (tombstones are skipped). Pins the containing page once per
    record (not once per page, plus one header pin per page), so a
    full scan against a warm pool keeps the hit rate the storage
    bench measures. *)

val record_count : t -> int
(** Live records (deletions excluded). *)

val data_pages : t -> int

val free_bytes : t -> int
(** Total contiguous free bytes across data pages, per the free-space
    directory.  Bytes of mid-page tombstones are counted only once the
    frontier cascade reclaims them. *)

val set_meta : t -> string -> unit
(** Store an application blob in the meta page (raises
    [Invalid_argument] if it does not fit one page). *)

val meta : t -> string

val sync : t -> unit
(** Flush the pool (writes back every dirty page, fsyncs). *)

val close : t -> unit
(** {!sync} then close the pool and pager. *)
