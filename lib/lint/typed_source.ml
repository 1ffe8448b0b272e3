(* Whole-program view for the interprocedural pass (R9..R13).

   jqlint runs from a bare source checkout — `dune build @lint` sandboxes
   only the .ml/.mli files, no cmt/cmi artifacts — so instead of driving
   the type-checker we build a deterministic "typing lite" layer over the
   parsetrees: per-unit module aliases, a table of every function
   definition (nested let-bound functions lifted under dotted names), the
   [@lint.guarded_by] field-guard table, and a name resolver that maps a
   [Longident] at a use site to the defining unit and function.  The
   resolver understands three spellings, which cover this codebase's
   idiom: a same-directory unit module ([Catalog.find] from manager.ml),
   a library-qualified path ([Jqi_util.Json.of_string], where [Jqi_x]
   names the dune library of lib/x), and a local alias for either
   ([module Json = Jqi_util.Json]).  Anything else is [External] and the
   analyses treat it by classifier, never by guess. *)

(* Matching [Parsetree] exhaustively is impractical — its variants have
   dozens of constructors and extend with the language — so catch-alls
   are the norm here; fragile-match stays off for this file only. *)
[@@@warning "-4"]

open Parsetree

type fn_kind = Toplevel | In_module | Nested

type param = { p_name : string option; p_label : Asttypes.arg_label }

type def = {
  d_unit : string;  (* normalized .ml path *)
  d_name : string;  (* dotted: "find", "Framing.feed", "submit.job" *)
  d_kind : fn_kind;
  d_params : param list;  (* [] for non-function bindings *)
  d_body : expression;  (* the full binding RHS, fun chain included *)
  d_loc : Location.t;
  d_public : bool;  (* reachable from outside the unit (mli surface) *)
}

type unit_info = {
  u_path : string;
  u_dir : string;  (* "lib/server" *)
  u_aliases : (string * string list) list;  (* local module alias -> path *)
}

(* A mutable field annotated [@lint.guarded_by "lock"]. *)
type guard = { g_lock : string; g_loc : Location.t }

(* A mutable (or mutable-container) field sharing a record with a mutex
   but carrying neither a guard nor a field-level [@lint.allow "R9"]. *)
type unguarded = {
  ug_unit : string;
  ug_field : string;
  ug_mutex : string;  (* the sibling lock field's name *)
  ug_loc : Location.t;
}

type program = {
  units : (string, unit_info) Hashtbl.t;
  defs : (string, def) Hashtbl.t;  (* key: unit ^ "|" ^ name *)
  guards : (string, guard) Hashtbl.t;  (* key: unit ^ "|" ^ field *)
  unguarded : unguarded list;
}

type target =
  | Internal of string * string  (* unit path, def name *)
  | Param of string
  | External of string list

let key u n = u ^ "|" ^ n
let find_def prog u n = Hashtbl.find_opt prog.defs (key u n)

let rec lid_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> lid_parts l @ [ s ]
  | Longident.Lapply (a, b) -> lid_parts a @ lid_parts b

(* ------------------------------------------------------------------ *)
(* Function-shape helpers                                              *)
(* ------------------------------------------------------------------ *)

let rec peel_params e =
  match e.pexp_desc with
  | Pexp_fun (label, _, pat, body) ->
      let name =
        let rec go p =
          match p.ppat_desc with
          | Ppat_var v -> Some v.txt
          | Ppat_constraint (p, _) | Ppat_alias (p, _) -> go p
          | _ -> None
        in
        go pat
      in
      let params, inner = peel_params body in
      ({ p_name = name; p_label = label } :: params, inner)
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> peel_params e
  | Pexp_function _ ->
      (* One anonymous scrutinee parameter; the cases are the body. *)
      ([ { p_name = None; p_label = Asttypes.Nolabel } ], e)
  | _ -> ([], e)

let is_function rhs = match peel_params rhs with [], _ -> false | _ -> true

let binding_name vb =
  let rec go p =
    match p.ppat_desc with
    | Ppat_var v -> Some v.txt
    | Ppat_constraint (p, _) -> go p
    | _ -> None
  in
  go vb.pvb_pat

(* ------------------------------------------------------------------ *)
(* Attribute helpers (shared with Suppress's payload grammar)          *)
(* ------------------------------------------------------------------ *)

let attr_strings (p : payload) : string list option =
  let const e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> Some s
    | _ -> None
  in
  match p with
  | PStr [] -> Some []
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> (
      match e.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> Some [ s ]
      | Pexp_tuple es ->
          let ss = List.filter_map const es in
          if List.compare_lengths ss es = 0 then Some ss else None
      | _ -> None)
  | _ -> None

let find_attr name attrs =
  List.find_opt (fun (a : attribute) -> String.equal a.attr_name.txt name) attrs

(* A field's attributes may land on the label declaration or on its core
   type depending on spelling; accept both. *)
let label_attrs (ld : label_declaration) =
  ld.pld_attributes @ ld.pld_type.ptyp_attributes

let guarded_by ld =
  match find_attr "lint.guarded_by" (label_attrs ld) with
  | Some a -> (
      match attr_strings a.attr_payload with Some [ l ] -> Some l | _ -> None)
  | None -> None

let field_allows_r9 ld =
  match find_attr "lint.allow" (label_attrs ld) with
  | Some a -> (
      match attr_strings a.attr_payload with
      | Some [] -> true
      | Some rules -> List.exists (String.equal "R9") rules
      | None -> false)
  | None -> false

(* ------------------------------------------------------------------ *)
(* Type scanning: guards and lock-completeness                         *)
(* ------------------------------------------------------------------ *)

let rec typ_mentions name ct =
  match ct.ptyp_desc with
  | Ptyp_constr (l, args) ->
      List.exists (String.equal name) (lid_parts l.txt)
      || List.exists (typ_mentions name) args
  | Ptyp_arrow (_, a, b) -> typ_mentions name a || typ_mentions name b
  | Ptyp_tuple ts -> List.exists (typ_mentions name) ts
  | Ptyp_poly (_, t) | Ptyp_alias (t, _) -> typ_mentions name t
  | _ -> false

(* Shared-container heads whose contents mutate even through an
   immutable field. *)
let container_head ct =
  match ct.ptyp_desc with
  | Ptyp_constr (l, _) -> (
      match List.rev (lid_parts l.txt) with
      | "t" :: m :: _ -> Some m
      | m :: _ -> Some m
      | [] -> None)
  | _ -> None

let mutable_container ld =
  match container_head ld.pld_type with
  | Some ("Hashtbl" | "Queue" | "Stack" | "Buffer") -> true
  | Some _ | None -> false

let scan_record ~unit_path guards unguarded (labels : label_declaration list) =
  let is_lock ld =
    typ_mentions "Mutex" ld.pld_type || typ_mentions "Condition" ld.pld_type
  in
  let mutex_field =
    List.find_opt (fun ld -> typ_mentions "Mutex" ld.pld_type) labels
  in
  List.iter
    (fun ld ->
      let field = ld.pld_name.txt in
      (match guarded_by ld with
      | Some lock ->
          Hashtbl.replace guards (key unit_path field)
            { g_lock = lock; g_loc = ld.pld_loc }
      | None -> ());
      match mutex_field with
      | Some m
        when (not (is_lock ld))
             && (not (String.equal ld.pld_name.txt m.pld_name.txt))
             && (ld.pld_mutable = Asttypes.Mutable || mutable_container ld)
             && guarded_by ld = None
             && not (field_allows_r9 ld) ->
          unguarded :=
            {
              ug_unit = unit_path;
              ug_field = field;
              ug_mutex = m.pld_name.txt;
              ug_loc = ld.pld_loc;
            }
            :: !unguarded
      | Some _ | None -> ())
    labels

(* ------------------------------------------------------------------ *)
(* Definition collection                                               *)
(* ------------------------------------------------------------------ *)

(* Register nested let-bound functions of [body] under dotted names, so
   [let job () = ... in ...] becomes the separate def "submit.job" and
   call sites can resolve it.  The scan recurses through every
   expression; [prefix] is the lexical chain of enclosing functions. *)
let rec scan_nested ~unit_path ~register ~prefix body =
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_let (_, vbs, cont) ->
              List.iter
                (fun vb ->
                  match binding_name vb with
                  | Some n when is_function vb.pvb_expr ->
                      let name = prefix ^ "." ^ n in
                      register
                        {
                          d_unit = unit_path;
                          d_name = name;
                          d_kind = Nested;
                          d_params = fst (peel_params vb.pvb_expr);
                          d_body = vb.pvb_expr;
                          d_loc = vb.pvb_loc;
                          d_public = false;
                        };
                      scan_nested ~unit_path ~register ~prefix:name vb.pvb_expr
                  | Some _ | None -> it.expr it vb.pvb_expr)
                vbs;
              it.expr it cont
          | _ -> super.expr it e);
    }
  in
  it.expr it body

let collect_unit ~unit_path (str : structure) =
  let defs = ref [] in
  let aliases = ref [] in
  let guards = Hashtbl.create 8 in
  let unguarded = ref [] in
  let register d = defs := d :: !defs in
  let init_count = ref 0 in
  let rec items ~mod_prefix list =
    List.iter
      (fun (si : structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                let kind =
                  if String.equal mod_prefix "" then Toplevel else In_module
                in
                let name =
                  match binding_name vb with
                  | Some n -> mod_prefix ^ n
                  | None ->
                      incr init_count;
                      mod_prefix ^ Printf.sprintf "<init#%d>" !init_count
                in
                register
                  {
                    d_unit = unit_path;
                    d_name = name;
                    d_kind = kind;
                    d_params = fst (peel_params vb.pvb_expr);
                    d_body = vb.pvb_expr;
                    d_loc = vb.pvb_loc;
                    d_public = true (* refined against the mli below *);
                  };
                scan_nested ~unit_path ~register ~prefix:name vb.pvb_expr)
              vbs
        | Pstr_module mb -> (
            let rec peel me =
              match me.pmod_desc with
              | Pmod_constraint (me, _) -> peel me
              | d -> d
            in
            match (mb.pmb_name.txt, peel mb.pmb_expr) with
            | Some n, Pmod_structure inner ->
                items ~mod_prefix:(mod_prefix ^ n ^ ".") inner
            | Some n, Pmod_ident l ->
                aliases := (n, lid_parts l.txt) :: !aliases
            | _ -> ())
        | Pstr_type (_, decls) ->
            List.iter
              (fun td ->
                match td.ptype_kind with
                | Ptype_record labels ->
                    scan_record ~unit_path guards unguarded labels
                | _ -> ())
              decls
        | _ -> ())
      list
  in
  items ~mod_prefix:"" str;
  (List.rev !defs, List.rev !aliases, guards, List.rev !unguarded)

(* ------------------------------------------------------------------ *)
(* The mli surface                                                     *)
(* ------------------------------------------------------------------ *)

(* The dotted names of the values a signature spells out ("find",
   "Framing.feed"), and the modules it does not spell out (a named or
   [with]-constrained module type), every member of which is public. *)
let rec sig_surface ~prefix (s : signature) =
  List.fold_left
    (fun (vals, opaque) (si : signature_item) ->
      match si.psig_desc with
      | Psig_value vd -> ((prefix ^ vd.pval_name.txt) :: vals, opaque)
      | Psig_module { pmd_name = { txt = Some n; _ }; pmd_type; _ } -> (
          match pmd_type.pmty_desc with
          | Pmty_signature inner ->
              let v, o = sig_surface ~prefix:(prefix ^ n ^ ".") inner in
              (List.rev_append v vals, List.rev_append o opaque)
          | _ -> (vals, (prefix ^ n) :: opaque))
      | _ -> (vals, opaque))
    ([], []) s

let refine_public ~mli def =
  match (mli, def.d_kind) with
  | None, _ -> def  (* no interface: every toplevel value is reachable *)
  | Some _, Nested -> { def with d_public = false }
  | Some (vals, opaque), (Toplevel | In_module) ->
      let name = def.d_name in
      {
        def with
        d_public =
          List.exists (String.equal name) vals
          || List.exists
               (fun m -> String.starts_with ~prefix:(m ^ ".") name)
               opaque;
      }

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let load (files : Source.file list) : program =
  let sigs = Hashtbl.create 16 in
  List.iter
    (fun (f : Source.file) ->
      match f.ast with
      | Source.Signature s ->
          Hashtbl.replace sigs (Rules.normalize f.path)
            (sig_surface ~prefix:"" s)
      | Source.Structure _ -> ())
    files;
  let units = Hashtbl.create 16 in
  let defs = Hashtbl.create 256 in
  let guards = Hashtbl.create 16 in
  let unguarded = ref [] in
  List.iter
    (fun (f : Source.file) ->
      match f.ast with
      | Source.Signature _ -> ()
      | Source.Structure str ->
          let unit_path = Rules.normalize f.path in
          let unit_defs, aliases, unit_guards, unit_unguarded =
            collect_unit ~unit_path str
          in
          let mli = Hashtbl.find_opt sigs (unit_path ^ "i") in
          Hashtbl.replace units unit_path
            {
              u_path = unit_path;
              u_dir = Filename.dirname unit_path;
              u_aliases = aliases;
            };
          List.iter
            (fun d ->
              let d = if d.d_kind = Nested then d else refine_public ~mli d in
              Hashtbl.replace defs (key unit_path d.d_name) d)
            unit_defs;
          Hashtbl.iter
            (fun k g -> Hashtbl.replace guards k g)
            unit_guards;
          unguarded := List.rev_append unit_unguarded !unguarded)
    files;
  { units; defs; guards; unguarded = List.rev !unguarded }

let unit_guard prog unit_path field =
  Hashtbl.find_opt prog.guards (key unit_path field)

let all_defs prog = Hashtbl.fold (fun _ d acc -> d :: acc) prog.defs []

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

let uncapitalize = String.uncapitalize_ascii

(* "Jqi_util" -> "lib/util": the dune library naming convention. *)
let lib_dir head =
  if String.length head > 4 && String.starts_with ~prefix:"Jqi_" head then
    Some ("lib/" ^ String.lowercase_ascii (String.sub head 4 (String.length head - 4)))
  else None

(* Scope chain for a bare name: inside "a.b", [n] may mean "a.b.n",
   "a.n" or the toplevel "n" — innermost wins, mirroring lexical scope
   of the lifted nested definitions. *)
let resolve_bare prog unit_path ~scope n =
  let rec chain segs =
    let candidate =
      match segs with [] -> n | _ -> String.concat "." segs ^ "." ^ n
    in
    if Hashtbl.mem prog.defs (key unit_path candidate) then
      Some (Internal (unit_path, candidate))
    else
      match List.rev segs with
      | [] -> None
      | _ :: outer -> chain (List.rev outer)
  in
  chain (String.split_on_char '.' scope)

let resolve prog (u : unit_info) ~scope ~is_param parts : target =
  match parts with
  | [] -> External []
  | [ n ] when is_param n -> Param n
  | [ n ] -> (
      match resolve_bare prog u.u_path ~scope n with
      | Some t -> t
      | None -> External [ n ])
  | head :: rest -> (
      let parts =
        match List.assoc_opt head u.u_aliases with
        | Some expansion -> expansion @ rest
        | None -> parts
      in
      let dotted = String.concat "." parts in
      (* A module nested in this very unit, e.g. Framing.feed from
         elsewhere in listener.ml. *)
      if Hashtbl.mem prog.defs (key u.u_path dotted) then
        Internal (u.u_path, dotted)
      else
        match parts with
        | [] -> External parts
        | head :: rest -> (
            match (lib_dir head, rest) with
            | Some dir, sub :: fn_parts when fn_parts <> [] ->
                let upath = dir ^ "/" ^ uncapitalize sub ^ ".ml" in
                let fn = String.concat "." fn_parts in
                if Hashtbl.mem prog.defs (key upath fn) then Internal (upath, fn)
                else External parts
            | _ ->
                (* Same-directory unit module: Catalog.find from
                   lib/server/manager.ml. *)
                let upath = u.u_dir ^ "/" ^ uncapitalize head ^ ".ml" in
                let fn = String.concat "." rest in
                if (not (String.equal fn ""))
                   && Hashtbl.mem prog.defs (key upath fn)
                then Internal (upath, fn)
                else External parts))
