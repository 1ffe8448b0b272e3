(** Relation catalog with a content-hash-keyed universe cache, sharded
    for concurrent use.

    The catalog names the relations a server may open sessions over, and
    memoizes [Universe.build] per relation *list*, keyed by the
    {!Jqi_relational.Relation.fingerprint}s in order.  N sessions over
    the same CSV pair build Ω once; re-registering a relation with different
    contents changes its fingerprint and naturally misses the cache.

    Every operation is safe to call from any domain.  The universe cache
    is hashed across shards (one mutex each); a build holds only its own
    shard's lock, and two concurrent misses on the same pair perform
    exactly one build.

    Cache traffic is observable twice over: the plain {!stats} counters
    (exact — maintained under the shard locks, used by the bench) and
    the Obs counters [server.universe_cache_hit] /
    [server.universe_cache_miss] (best-effort across domains, for
    metrics-pinned tests and traces). *)

type t

(** [shards] defaults to {!Shard.default_shards}. *)
val create : ?shards:int -> unit -> t

(** Number of universe-cache shards. *)
val shards : t -> int

(** Register a relation under [name] (default: its own
    [Relation.name]).  Re-registering a name replaces the relation. *)
val add : ?name:string -> t -> Jqi_relational.Relation.t -> unit

val find : t -> string -> Jqi_relational.Relation.t option

(** Registered names, sorted. *)
val names : t -> string list

(** The universe of R_0 × … × R_{k-1}, built with [Universe.build] on
    first use and cached under the colon-joined fingerprint list.  The
    flag is [true] on a cache hit (the build was skipped).  Build errors
    ([Invalid_argument], [Universe.Kary_too_large]) propagate to the
    caller. *)
val universe :
  t -> Jqi_relational.Relation.t list -> bool * Jqi_core.Universe.t

(** Outcome of {!apply_delta}: the post-delta relation now registered
    under the name, the fingerprint transition, and what happened to the
    universe cache — [patched] entries were migrated in place (universe
    updated via [Universe.apply_delta], re-keyed under [new_fp]);
    [dropped] entries were evicted and will rebuild on next use. *)
type churn = {
  new_rel : Jqi_relational.Relation.t;
  old_fp : string;
  new_fp : string;
  patched : int;
  dropped : int;
}

(** Fold a delta into the named relation at cache granularity: instead
    of evicting every universe that involves the relation, each cached
    universe keyed on its pre-delta fingerprint is patched with
    [Universe.apply_delta] and re-keyed under the post-delta
    fingerprint, so open sessions re-certify against an
    already-maintained Ω with no rebuild.  The registered relation and
    its fingerprint accumulator are updated (append-only deltas extend
    the fingerprint in O(|adds|)).

    Paged relations share one mutable backing store, so the delta is
    applied to the store exactly once: the first cached single-position
    entry is patched (or, with no cache entries, the relation is
    updated directly) and any further entries — including self-join
    entries, where the fingerprint appears at two key positions — are
    dropped rather than double-applied.

    [None] when no relation is registered under [name].  Raises
    [Invalid_argument] when the delta itself is invalid against the
    relation (arity mismatch, or a remove matching no row). *)
val apply_delta : t -> name:string -> Jqi_relational.Delta.t -> churn option

(** (cache hits, cache misses) per shard, in shard order.  Exact: the
    counters are updated under the shard locks. *)
val shard_stats : t -> (int * int) list

(** (cache hits, cache misses) since [create] — the sum of
    {!shard_stats}. *)
val stats : t -> int * int
