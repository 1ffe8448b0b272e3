(** The lint pipeline: discover -> parse -> rules -> suppress -> baseline.

    Parsing is sequential (compiler-libs' lexer keeps global buffers);
    the per-file rule walks (R1..R8) fan out across [jobs] domains with
    a deterministic report order; the interprocedural stage (R9..R13)
    builds the whole-program view once and runs sequentially. *)

type options = {
  rules : string list option;  (** None = every rule; ids like ["R9"] *)
  changed : string list option;
      (** normalized paths: only report findings landing in these files *)
  jobs : int;  (** domains for the per-file stage *)
}

val default_options : options

(** Interprocedural pass statistics for the JSON report. *)
type analysis = { units : int; defs : int; wrappers : int; rounds : int }

type outcome = {
  files : int;  (** files linted (the changed subset when restricted) *)
  findings : Finding.t list;  (** post-suppression, sorted *)
  fresh : Finding.t list;  (** in excess of the baseline *)
  stale : Baseline.entry list;  (** empty in changed mode *)
  parse_errors : int;
  wall_ms : float;
  analysis : analysis option;  (** present when R9..R13 ran *)
}

(** Lint in-memory sources as one little program: per-file rules plus
    R9..R13 over the set, suppression applied, no R6/baseline. *)
val lint_sources :
  ?opts:options -> (string * string) list -> Finding.t list

(** [lint_sources] with a single file (fixture tests). *)
val lint_source : ?opts:options -> path:string -> string -> Finding.t list

(** Lint files/directories:
    [(linted file count, sorted findings, analysis)]. *)
val lint_paths :
  ?opts:options -> string list -> int * Finding.t list * analysis option

val run : ?baseline:Baseline.t -> ?opts:options -> string list -> outcome

(** No findings beyond the baseline. *)
val clean : outcome -> bool

val analysis_to_json : analysis -> Jqi_util.Json.t
