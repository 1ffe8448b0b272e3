(** Per-function summaries for the interprocedural rules: a small
    abstract interpreter tracks the set of locks held through each
    definition's control flow and records the events R9..R12 consume —
    acquisitions, guarded-field accesses, blocking operations, effectful
    identifiers, uncaught raises, and call sites with the lock set in
    force.  Lock-scoped wrapper functions (a parameter always invoked
    under the same locks) are discovered by fixpoint so call sites
    passing closures to them analyze those closures under the wrapper's
    locks. *)

module Tok : sig
  type kind = Kmutex | Kshard

  type t = { unit_path : string; name : string; kind : kind }

  val pp : t -> string
end

module Tset : Set.S with type elt = Tok.t

val pp_tokens : Tset.t -> string

type site = {
  s_parts : string list;
  s_target : Typed_source.target;
  s_loc : Location.t;
  s_must : Tset.t;
  s_caught : string list;
  s_deferred : bool;
}

type acquire = {
  a_tok : Tok.t;
  a_held : Tset.t;
  a_loc : Location.t;
  a_deferred : bool;
}

type access = {
  x_field : string;
  x_guard : Tok.t;
  x_must : Tset.t;
  x_loc : Location.t;
}

type blocking = {
  b_what : string;
  b_self : Tok.t option;
  b_must : Tset.t;
  b_loc : Location.t;
  b_deferred : bool;
}

type summary = {
  sm_def : Typed_source.def;
  sm_calls : site list;
  sm_acquires : acquire list;
  sm_accesses : access list;
  sm_blocking : blocking list;
  sm_forbidden : (string * Location.t) list;
  sm_raises : (string * Location.t * bool) list;
  sm_exit_may : Tset.t;
}

type t = {
  summaries : (string, summary) Hashtbl.t;
  wrappers : (string, (string * Tset.t) list) Hashtbl.t;
  rounds : int;
}

val build : Typed_source.program -> t
