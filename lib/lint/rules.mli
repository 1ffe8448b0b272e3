(** The rule catalog (R1..R13) and the per-file parsetree checks
    (R1..R8). *)

type rule = { id : string; title : string; hint : string }

val catalog : rule list
val find_rule : string -> rule option

(** Normalize a path: strip a leading "./", use '/' separators. *)
val normalize : string -> string

(** Run every expression-level rule over one parsed file.  Signatures
    produce no findings (R6 is project-level).  Findings are in source
    order; suppression attributes are NOT yet applied. *)
val check_file : Source.file -> Finding.t list

(** R6 over the full discovered path list: every [lib/**.ml] must have a
    sibling [.mli]. *)
val check_missing_mli : string list -> Finding.t list
