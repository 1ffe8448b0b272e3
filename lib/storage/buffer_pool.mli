(** Buffer pool: a bounded cache of pages with pin/unpin refcounts,
    dirty tracking, and CLOCK (second-chance) eviction.

    Every page access goes through {!pin}/{!unpin} (or the bracketed
    {!with_page}/{!with_page_rw}). A pinned frame is never evicted;
    eviction of a dirty victim writes it back first. When every frame
    is pinned, {!Exhausted} is raised rather than blocking.

    Hit/miss/eviction/flush counts are kept unconditionally in
    {!stats} and mirrored into [jqi.obs] counters
    [storage.pool_hits], [storage.pool_misses],
    [storage.pool_evictions] and [storage.pool_flushes].

    Thread-safe: one internal latch serializes frame-table updates and
    page I/O. The page [bytes] handed out by {!pin} is safe to read or
    write for as long as the caller holds the pin. *)

type t

type frame
(** A cached page, held pinned by the caller. *)

val frame_buf : frame -> bytes
(** The frame's page buffer; aliases pool memory, so only valid (and
    only guaranteed to hold the pinned page) while the pin is held. *)

val frame_page : frame -> int
(** Page id currently held by the frame. *)

exception Exhausted of int
(** All [n] frames are pinned; carrier is the pool size. *)

type stats = { hits : int; misses : int; evictions : int; flushes : int }

val create : ?frames:int -> Pager.t -> t
(** [create pager] wraps [pager] with a pool of [frames] buffers
    (default 64, minimum 1). The pool owns the pager: {!close} closes
    it. *)

val pager : t -> Pager.t

val pin : t -> int -> frame
(** Fetch page [pid] into a frame (cache hit or a read through the
    pager) and increment its pin count. Raises {!Exhausted} when no
    frame can be freed, [Invalid_argument] on a bad pid. *)

val unpin : ?dirty:bool -> t -> frame -> unit
(** Release one pin; [~dirty:true] marks the frame for write-back.
    Raises [Invalid_argument] if the frame is not pinned. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** [pin]/read/[unpin] bracket (exception-safe). *)

val with_page_rw : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page} but unpins with [~dirty:true]. *)

val allocate : t -> Page.kind -> int
(** Allocate a fresh page in the pager, materialize it in the pool as
    a zeroed page of the given kind, marked dirty; returns its id. *)

val flush : t -> unit
(** Write back every dirty frame (pinned ones included) and sync the
    pager. *)

val pinned : t -> int
(** Total outstanding pins across all frames (0 = no leaks). *)

val resident : t -> int
(** Number of frames currently holding a page. *)

val stats : t -> stats
val reset_stats : t -> unit

val close : t -> unit
(** Flush, then close the underlying pager. Idempotent. *)
