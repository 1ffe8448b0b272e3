(** Rendering.  All functions return strings; the CLI owns stdout. *)

(** One line per fresh finding with its hint, stale-baseline notes, and a
    summary line. *)
val human :
  files:int ->
  total:int ->
  fresh:Finding.t list ->
  stale:Baseline.entry list ->
  string

(** GitHub workflow commands ([::error file=...]) for inline annotations. *)
val github : Finding.t list -> string

(** Full machine-readable report (all findings, fresh subset, counts,
    wall time, and — when the interprocedural pass ran — its summary
    object under ["analysis"]). *)
val json :
  ?wall_ms:float ->
  ?analysis:Jqi_util.Json.t ->
  files:int ->
  findings:Finding.t list ->
  fresh:Finding.t list ->
  stale:Baseline.entry list ->
  unit ->
  string
