(** Mutex-sharded mutable state.

    [create ?shards init] builds [shards] independent states
    ([init i] for shard [i]), each behind its own mutex.  String keys
    are hashed to shards with FNV-1a (stable across runs — the shard a
    session lands on is a pure function of its id), so operations on
    keys of different shards never contend.

    Locking discipline: one shard of a given [t] at a time, no
    reentrancy.  Nesting across *different* [t]s is safe because every
    operation releases its shard before returning. *)

type 'a t

(** [create ?shards init] — [shards] defaults to 16 and is
    clamped to at least 1. *)
val create : ?shards:int -> (int -> 'a) -> 'a t

(** Run [f] on [key]'s shard state while holding that shard's mutex. *)
val with_key : 'a t -> string -> ('a -> 'b) -> 'b

(** Fold over every shard in index order, locking each one in turn
    (never two at once).  The result is a consistent per-shard snapshot,
    not a global atomic one. *)
val fold : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b

(** [mapi t f] = per-shard [f i state] under each shard's lock, in
    index order. *)
val mapi : 'a t -> (int -> 'a -> 'b) -> 'b list
