(** Concurrent-session manager: many independent labeling sessions over
    one relation catalog, each a sans-IO [Engine] addressed by id.

    The manager is transport-agnostic — [Service] maps protocol frames
    onto it, [Listener] serves it over sockets, the bench drives it
    directly.  Sessions are cheap: opening one costs a universe-cache
    lookup (the build itself is shared via [Catalog]) plus one strategy
    choice, so thousands of interleaved sessions are the intended load.

    Every operation is safe to call from any domain.  Sessions are
    hashed across shards by id, one mutex per shard: a request locks
    exactly its session's shard for the duration of the engine
    transition, so sessions on different shards proceed in parallel and
    two racing requests for the same session serialize — each sees a
    consistent engine value, never a torn one.

    Every call stamps the session's last-activity time from the
    manager's clock ([Obs.now] unless injected), and [sweep] evicts
    sessions idle longer than [idle_timeout] — first freezing each as a
    session document retrievable via {!evicted_doc}, the same
    autosave guarantee the CLI's EOF path gives (in-flight pending
    question included).  All activity ticks [server.*] Obs counters
    (best-effort across domains); {!shard_stats} and {!stats} are exact,
    maintained under the shard locks. *)

module Engine = Jqi_core.Engine

type t

type error =
  | Unknown_relation of string
  | Unknown_strategy of string
  | Unknown_session of string
  | No_pending of string  (** tell without an outstanding question *)
  | Corrupt_session of string  (** resume document rejected; message *)
  | Stale_label of string
      (** a churn delta retired a class the session depends on: resuming
          a document whose label/pending signature no longer exists, or
          ask/tell on a session flagged stale by {!apply_delta} *)
  | Bad_delta of string  (** delta rejected against the live relation *)

val error_message : error -> string

(** What [open_session]/[resume_session] report back. *)
type info = {
  id : string;
  rel_names : string list;  (** catalog names, in relation order *)
  strategy_name : string;
  classes : int;
  omega_width : int;
  cache_hit : bool;  (** the universe came from the cache *)
}

(** One protocol step: either the next question to present, or the
    session's outcome (Γ reached — nothing informative left to ask). *)
type turn = Next of Engine.question | Finished of Engine.outcome

(** Exact activity counters.  As per-shard values ({!shard_stats}) each
    is maintained under that shard's lock; the global {!stats} is their
    sum, so shard stats always sum to global stats. *)
type stats = {
  live : int;  (** sessions currently registered *)
  opened : int;
  resumed : int;
  closed : int;
  evicted : int;
  autosaved : int;  (** evictions that stashed a resume document *)
  questions : int;
  labels : int;
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

(** How [Load] requests turn a CSV path into a relation.  The default
    materializes in memory ([Csv.load_relation]); the CLI injects a
    paged loader (jqi.storage) so served relations stream from heap
    files — this library never depends on the storage engine. *)
type loader = name:string -> string -> Jqi_relational.Relation.t

(** [clock] defaults to [Obs.now]; [idle_timeout] (seconds) enables
    {!sweep}; [seed] feeds randomized strategies; [shards] defaults to
    16; [loader] services [Load] requests. *)
val create :
  ?clock:(unit -> float) -> ?idle_timeout:float -> ?seed:int ->
  ?shards:int -> ?loader:loader -> Catalog.t -> t

val catalog : t -> Catalog.t

val load : t -> name:string -> string -> Jqi_relational.Relation.t
(** Load a CSV via the manager's backend loader and add it to the
    catalog.  Raises [Sys_error] / [Invalid_argument] on bad input. *)

(** Open a fresh session over [relations] catalog names, in order, with
    a strategy named as in [Strategy.of_name].  Two names give the
    paper's binary session.  The universe comes from {!Catalog.universe}
    by name, so a repeat open over a seen relation version reads no
    rows.  [Unknown_strategy] is reported before anything is built,
    and [Unknown_relation] names the first unregistered name; build
    errors ([Invalid_argument] on fewer than two relations,
    [Universe.Kary_too_large] for k ≥ 3) propagate to the caller. *)
val open_session :
  t -> relations:string list -> strategy:string -> (info, error) result

(** Thaw a [Session] document into a live session over [relations]
    catalog names.  Binary sessions load v1, v2 or v3 documents; k ≥ 3
    sessions need v3.  [strategy] overrides the persisted strategy name;
    without either the default is td.  A persisted in-flight question is
    re-presented when it is still informative.  Build errors propagate
    as in {!open_session}. *)
val resume_session :
  t -> relations:string list -> ?strategy:string -> Jqi_util.Json.t ->
  (info, error) result

val ask : t -> string -> (turn, error) result
(** Fails with [Stale_label] on a session flagged stale by
    {!apply_delta} — {!save} remains available to recover the labels. *)

(** Label the outstanding question; returns the following turn. *)
val tell : t -> string -> Jqi_core.Sample.label -> (turn, error) result

(** Freeze the session as a [Session] document (strategy + pending
    question included): v2 for binary sessions, v3 for k ≥ 3. *)
val save : t -> string -> (Jqi_util.Json.t, error) result

val close : t -> string -> (unit, error) result

(** {2 Data churn}

    Outcome of {!apply_delta}: the cache work the catalog did and the
    fate of every live session over the relation. *)
type delta_info = {
  relation : string;
  added : int;  (** rows inserted *)
  removed : int;  (** rows deleted *)
  cache_patched : int;
      (** universe-cache entries migrated via [Universe.apply_delta] *)
  cache_dropped : int;  (** universe-cache entries evicted instead *)
  recertified : string list;  (** sessions carried over, sorted *)
  stale : (string * string) list;
      (** (session id, reason) for sessions that could not be carried
          over, sorted by id.  Stale sessions refuse {!ask}/{!tell} but
          keep their pre-delta engine so {!save} stays coherent. *)
}

(** Fold a churn batch into the named catalog relation and broadcast
    re-certification: the catalog patches its cached universes at delta
    granularity ({!Catalog.apply_delta}), then every live session over
    the relation is replayed {e by signature} against the post-delta
    universe ([Engine.recertify]).  Each session looks its universe up
    by name, and the catalog stored the post-delta fingerprint with the
    relation, so the broadcast hashes no rows whatever the number of
    sessions.  Still-consistent sessions continue
    transparently — same id, labels preserved, pending question
    re-anchored — while sessions depending on a retired class are
    flagged stale with a typed reason.

    [Unknown_relation] when [relation] is not registered; [Bad_delta]
    when the rows mismatch the relation's arity or a remove matches no
    live row (the relation and cache are untouched in both cases). *)
val apply_delta :
  t -> relation:string -> Jqi_relational.Delta.t ->
  (delta_info, error) result

(** Evict sessions idle past [idle_timeout]; returns the evicted ids,
    sorted.  Each evicted session is autosaved first — its document
    (in-flight pending question included) lands in a bounded per-shard
    store readable via {!evicted_doc}.  No-op without a timeout. *)
val sweep : t -> string list

(** The autosaved document of an evicted session, if still retained
    (the per-shard store is bounded; oldest entries fall out first).
    Feed it to {!resume_session} to pick up where the evictee left
    off. *)
val evicted_doc : t -> string -> Jqi_util.Json.t option

val session_count : t -> int

(** Live ids, sorted. *)
val session_ids : t -> string list

(** The universe a session runs on, for callers that need to render
    predicates or signatures (e.g. [Service]). *)
val session_universe : t -> string -> Jqi_core.Universe.t option

(** Per-shard exact counters, in shard order. *)
val shard_stats : t -> stats list

(** Global exact counters: the sum of {!shard_stats}. *)
val stats : t -> stats
