(** Relation schemas: ordered, named, typed columns. *)

type column = { name : string; ty : Value.ty }
type t

val column : string -> Value.ty -> column

(** Raises [Invalid_argument] on duplicate column names. *)
val of_columns : column list -> t

(** All columns share [ty] (default string). *)
val of_names : ?ty:Value.ty -> string list -> t

val arity : t -> int
val columns : t -> column list
val name_at : t -> int -> string
val ty_at : t -> int -> Value.ty
val names : t -> string list
val index_of : t -> string -> int option

(** Raises [Invalid_argument] on unknown names. *)
val index_of_exn : t -> string -> int

val mem : t -> string -> bool
val equal : t -> t -> bool

(** Concatenation for Cartesian products; clashing names are qualified
    with the given prefixes so attribute sets stay disjoint (the paper's
    standing assumption). *)
val product : ?left_prefix:string -> ?right_prefix:string -> t -> t -> t

val project : t -> int list -> t
val rename : t -> string -> string -> t
val pp : Format.formatter -> t -> unit
