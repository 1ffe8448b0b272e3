(** Session persistence: save a labeling session as JSON, resume it later
    against the same relations.  Examples are stored as row-index vectors
    (one index per relation), so sessions are independent of class
    numbering; loading replays labels through [State.label] and rejects
    files inconsistent with the instance.

    Schema v2 additionally persists the strategy name and the in-flight
    question; v3 generalizes examples and pending to k-ary row vectors.
    Every session writes v3, at every k; v1..v3 files all load, so
    documents written by earlier builds and the checked-in v1/v2
    fixtures stay valid. *)

exception Corrupt of string

(** A structurally valid document referring to a signature the universe no
    longer carries — the typed outcome of loading a session across a data
    delta that retired a labeled class or the pending question's class
    ([label] is [None] for the pending question).  Distinct from
    {!Corrupt}: the file is fine, the data moved. *)
exception
  Stale_label of {
    signature : Jqi_util.Bits.t;
    label : Sample.label option;
  }

(** The version this build writes (3).  Versions 1..[version] load. *)
val version : int

(** A thawed session: the replayed sample plus the v2+ metadata (absent
    for v1 files). *)
type loaded = {
  state : State.t;
  strategy : string option;  (** strategy name, e.g. ["TD"] *)
  pending : int array option;
      (** in-flight question as a row vector; [None] when absent — or when
          the document carries a signature and the rows dangle (churn) *)
  pending_sig : Jqi_util.Bits.t option;
      (** the in-flight question's signature, when the document carries
          the additive ["sig"] field (written since the churn pipeline);
          authoritative over [pending] for resuming *)
}

(** Requires a universe built from relations; raises [Corrupt] otherwise.
    [strategy] and [pending] become the v2+ metadata fields. *)
val to_json :
  ?strategy:string -> ?pending:int array -> Universe.t -> State.t ->
  Jqi_util.Json.t

(** Raises [Corrupt] on version mismatch, malformed structure, dangling
    row references, or labels inconsistent with the instance. *)
val of_json_full : Universe.t -> Jqi_util.Json.t -> loaded

(** [of_json u j] is [(of_json_full u j).state]. *)
val of_json : Universe.t -> Jqi_util.Json.t -> State.t

val save :
  ?strategy:string -> ?pending:int array -> string -> Universe.t ->
  State.t -> unit

val load : string -> Universe.t -> State.t
val load_full : string -> Universe.t -> loaded

(** Map a thawed [pending] question back to its class, provided the class
    is still informative under [state] — the guard a resuming engine uses
    before re-presenting the frozen question.  When [signature] (the
    document's [pending_sig]) is given it is authoritative: the row
    vector is ignored, and a signature naming no class raises
    {!Stale_label} with [label = None] — the question's tuples were
    deleted.  Without it, dangling rows degrade to [None] as before. *)
val pending_class :
  ?signature:Jqi_util.Bits.t -> Universe.t -> State.t -> int array option ->
  int option
