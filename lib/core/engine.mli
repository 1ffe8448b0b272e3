(** Algorithm 1 as a sans-IO state machine.

    [Inference.run] couples the inference loop to an [Oracle.t] callback:
    the caller hands over control until the loop returns.  [Engine] is the
    same algorithm inverted — it never performs IO and never blocks.  It
    exposes the in-flight question through {!pending}; whoever owns the
    IO (a CLI prompt, a network service, a test harness) obtains a label
    by any means and feeds it back through {!answer}, which returns the
    successor engine.

    Values of type [t] behave as immutable values: {!answer} copies the
    underlying {!State.t}, so an engine can be answered twice (e.g. to
    explore both labels) and old engines remain valid.  The driver loop in
    [Inference.run] is a thin wrapper over this module and reproduces its
    historical question sequence exactly — the differential property the
    test suite pins. *)

type question = {
  class_id : int;  (** index into the universe's class array *)
  signature : Jqi_util.Bits.t;  (** T(t) of the class *)
  rows : Jqi_relational.Tuple.t array option;
      (** one concrete tuple per relation to show the user, when the
          universe was built from relations *)
}

type t

(** What a finished (or interrupted) engine has established — the payload
    [Inference.result] wraps with timing and the strategy name. *)
type outcome = {
  predicate : Jqi_util.Bits.t;  (** T(S+), the current answer *)
  steps : (int * Sample.label) list;  (** chronological (class, label) *)
  n_interactions : int;
  halted : bool;  (** Γ reached (no informative tuple left) *)
  state : State.t;  (** an independent copy of the engine's sample *)
}

(** [create universe strategy] starts a session and immediately selects
    the first question (when the budget allows and an informative tuple
    exists).  [state] resumes from an existing sample, which is copied —
    the argument is not mutated.  [max_interactions] bounds the number of
    {!answer} calls accepted through this engine, mirroring
    [Inference.run]'s budget: prior interactions of a resumed [state] do
    not count against it.  [pending] forces the initial question to that
    class (a session restored mid-question re-presents the same tuple);
    it is ignored unless the class is still informative. *)
val create :
  ?max_interactions:int -> ?state:State.t -> ?pending:int -> Universe.t ->
  Strategy.t -> t

(** The question awaiting a label; [None] when the engine is finished
    (Γ reached or budget exhausted). *)
val pending : t -> question option

(** Feed the label for the pending question; returns the successor engine
    with the next question selected.  Raises [Invalid_argument] when no
    question is pending, and [State.Inconsistent] when the label
    contradicts a certain label (Algorithm 1 lines 6-7). *)
val answer : t -> Sample.label -> t

(** {2 Re-certification after churn}

    When the universe changes under a live session ({!Universe.apply_delta}),
    the session's labels refer to classes of the {e old} universe.  Because
    every semantic notion — informativeness, certainty, selection — depends
    only on signatures, a session stays meaningful exactly when each
    labeled signature still names a class of the new universe. *)

(** Why a session could not be carried over. *)
type stale_reason =
  | Label_retired of {
      step : int;  (** 1-based position in the history *)
      signature : Jqi_util.Bits.t;
      label : Sample.label;
    }
      (** A labeled signature no longer has tuples in D — the class was
          retired by churn, so the user's example refers to nothing. *)
  | Label_contradicts of {
      step : int;
      signature : Jqi_util.Bits.t;
      label : Sample.label;
    }
      (** Replaying the label hit an opposite certain label.  Defensive:
          consistency of a sample depends only on its signature multiset,
          so a signature-preserving replay cannot newly contradict. *)
  | Question_retired of { signature : Jqi_util.Bits.t }
      (** The in-flight question's class is gone; its answer would label
          a tuple that no longer exists. *)

type recertification = Recertified of t | Stale of stale_reason

(** [recertify t u'] carries a session over to the post-delta universe
    [u']: the history is replayed {e by signature} into a fresh state
    over [u'], the pending question is re-anchored to the class now
    carrying its signature, and the remaining budget is preserved.
    Still-consistent sessions continue — a pending question whose answer
    became certain under [u'] is simply re-selected — while sessions
    referring to retired signatures come back [Stale] with a typed
    reason.  [t] itself is unchanged and remains valid against its own
    universe. *)
val recertify : t -> Universe.t -> recertification

(** No question pending: either Γ was reached or the budget ran out. *)
val finished : t -> bool

(** Γ reached — the strategy found no informative tuple.  [false] while a
    question is pending or when the budget ran out first. *)
val halted : t -> bool

(** Questions answered through this engine (excludes prior interactions
    of a resumed state). *)
val n_asked : t -> int

val universe : t -> Universe.t
val strategy : t -> Strategy.t

(** Snapshot of what the engine knows; callable at any point of the
    session.  The returned state is an independent copy. *)
val result : t -> outcome
