(** RFC-4180-style CSV: quoted fields (with embedded separators, escaped
    quotes and newlines), relation loading with type inference, and
    persistence for the generators. *)

(** Parse raw records.  Tolerates CRLF; a trailing newline does not create
    an empty record. *)
val parse_string : ?sep:char -> string -> string list list

val to_string : ?sep:char -> string list list -> string

(** First record is the header.  Without [schema], column types are
    inferred from the data ([Value.infer_ty]).  Raises [Invalid_argument]
    on empty input, ragged records, or unparseable cells. *)
val relation_of_records :
  name:string -> ?schema:Schema.t -> string list list -> Relation.t

(** Streaming import into an arbitrary sink (e.g. a heap file): two
    bounded-memory passes over [path].  Pass 1 checks raggedness and —
    unless [schema] is given — infers column types exactly as
    {!Value.infer_ty} would; then [init] receives the schema and
    builds the sink, and pass 2 re-streams the file calling
    [push sink tuple] once per data row, in file order.  Never
    materializes the row list.  Same [Invalid_argument] errors as
    {!relation_of_records}. *)
val load_into :
  ?sep:char ->
  ?schema:Schema.t ->
  string ->
  init:(Schema.t -> 'sink) ->
  push:('sink -> Tuple.t -> unit) ->
  'sink * Schema.t

val load_relation :
  ?sep:char -> name:string -> ?schema:Schema.t -> string -> Relation.t

val records_of_relation : Relation.t -> string list list
val save_relation : ?sep:char -> string -> Relation.t -> unit
