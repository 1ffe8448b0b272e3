(** Domain-based worker pool with a bounded job queue and load
    shedding.

    [submit] blocks the calling thread until a worker domain ran the
    job and returns its result ([Done]), re-raising the job's exception
    in the caller if it raised — a worker never dies of a job.  When the
    queue already holds [capacity] jobs, [submit] returns [Shed]
    immediately: that refusal is the server's backpressure signal
    (turned into a [busy] error frame by the listener).

    [async] enqueues fire-and-forget work under the same bound; its
    exceptions are swallowed.

    Shedding and queue depth are observable exactly via {!stats} and
    best-effort via the Obs counter [server.shed], the counter
    [server.pool.jobs], and the histogram [server.queue_depth]. *)

type t

type 'a outcome = Done of 'a | Shed

type stats = {
  submitted : int;  (** accepted into the queue *)
  completed : int;
  shed : int;  (** refused because the queue was full *)
  max_depth : int;  (** deepest the queue has been *)
}

(** [create ?capacity ~workers ()] spawns [workers] domains (clamped to
    ≥ 1).  [capacity] (default 256, clamped to ≥ 1) bounds the job
    queue. *)
val create : ?capacity:int -> workers:int -> unit -> t

val workers : t -> int

(** Run [f] on a worker, blocking until its result; [Shed] when the
    queue is full (or the pool is shutting down). *)
val submit : t -> (unit -> 'a) -> 'a outcome

(** Enqueue without waiting; [false] means shed. *)
val async : t -> (unit -> unit) -> bool

val stats : t -> stats

(** Stop accepting, drain the queue, and join the worker domains.
    Idempotent. *)
val shutdown : t -> unit
