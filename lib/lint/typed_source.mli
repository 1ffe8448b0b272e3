(** Whole-program "typing lite" layer for the interprocedural rules
    (R9..R13): per-unit function tables with nested functions lifted
    under dotted names, [@lint.guarded_by] field-guard tables, the mli
    public surface, and deterministic name resolution from a use site to
    the defining unit — no cmt artifacts required. *)

type fn_kind = Toplevel | In_module | Nested

type param = { p_name : string option; p_label : Asttypes.arg_label }

type def = {
  d_unit : string;  (** normalized .ml path *)
  d_name : string;  (** dotted: "find", "Framing.feed", "submit.job" *)
  d_kind : fn_kind;
  d_params : param list;  (** [] for non-function bindings *)
  d_body : Parsetree.expression;  (** full RHS, fun chain included *)
  d_loc : Location.t;
  d_public : bool;  (** on the unit's mli surface (or no mli exists) *)
}

type unit_info = {
  u_path : string;
  u_dir : string;
  u_aliases : (string * string list) list;
}

type guard = { g_lock : string; g_loc : Location.t }

(** A mutable field sharing a record with a mutex but carrying neither a
    [@lint.guarded_by] nor a field-level [@lint.allow "R9"]. *)
type unguarded = {
  ug_unit : string;
  ug_field : string;
  ug_mutex : string;
  ug_loc : Location.t;
}

type program = {
  units : (string, unit_info) Hashtbl.t;
  defs : (string, def) Hashtbl.t;  (** key: unit ^ "|" ^ name *)
  guards : (string, guard) Hashtbl.t;  (** key: unit ^ "|" ^ field *)
  unguarded : unguarded list;
}

type target =
  | Internal of string * string  (** unit path, def name *)
  | Param of string
  | External of string list

val key : string -> string -> string
val lid_parts : Longident.t -> string list

(** Split a binding RHS into its parameter chain and inner body.
    [Pexp_function] counts as one anonymous parameter. *)
val peel_params : Parsetree.expression -> param list * Parsetree.expression

val binding_name : Parsetree.value_binding -> string option
val is_function : Parsetree.expression -> bool

(** The directory of the dune library a [Jqi_x] module names ("lib/x"). *)
val lib_dir : string -> string option

(** Build the program view from parsed files (both .ml and .mli). *)
val load : Source.file list -> program

val find_def : program -> string -> string -> def option
val unit_guard : program -> string -> string -> guard option
val all_defs : program -> def list

(** Resolve an identifier path seen in [u] inside function [scope]
    (dotted name) to its definition.  [is_param] tests the enclosing
    function's parameters. *)
val resolve :
  program ->
  unit_info ->
  scope:string ->
  is_param:(string -> bool) ->
  string list ->
  target
