(* R13: an export with no caller outside its module.

   A value on a unit's .mli surface ([Typed_source.def.d_public]) earns
   its place only if some other unit uses it.  The call graph records
   only applied identifiers inside function bodies, so this walk visits
   every expression and module expression of every .ml instead: a use is
   an identifier resolving to the def, applied or not, a [let*] operator,
   or a module argument, [include] or first-class module naming the
   def's module ([Set.Make (Tok)] uses all of [Tok]).

   Names resolve through a same-directory unit, the [Jqi_x] library
   prefix, module aliases ([module X = ...], [let module X = ... in]) and
   opens ([open], [let open], [M.(e)]), an opened unit's own aliases
   included ([open Fixtures] then [Relation.f]).  Local variables are not
   tracked, so a local that shadows an opened export counts as a use of
   it: the rule errs towards silence. *)

(* Matching [Parsetree] exhaustively is impractical — its variants have
   dozens of constructors and extend with the language — so catch-alls
   are the norm here; fragile-match stays off for this file only. *)
[@@@warning "-4"]

open Parsetree
module T = Typed_source

(* Where a module path leads: a library wrapper ("lib/core"), or a unit
   and a chain of submodules inside it. *)
type mpath = Lib of string | Mod of string * string list

type binding = Open of mpath | Alias of string * mpath

let dotted chain n = String.concat "." (chain @ [ n ])

(* The program, and the submodule chains that define something, keyed
   [unit ^ "|" ^ "A.B"]. *)
type ctx = { prog : T.program; subs : (string, unit) Hashtbl.t }

let make_ctx (prog : T.program) =
  let subs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (d : T.def) ->
      if d.T.d_kind = T.In_module then
        String.iteri
          (fun i c ->
            if c = '.' then
              Hashtbl.replace subs
                (T.key d.T.d_unit (String.sub d.T.d_name 0 i))
                ())
          d.T.d_name)
    prog.T.defs;
  { prog; subs }

let has_def ctx upath name = Hashtbl.mem ctx.prog.T.defs (T.key upath name)

let same_dir ctx ~dir m =
  let upath = dir ^ "/" ^ String.uncapitalize_ascii m ^ ".ml" in
  if Hashtbl.mem ctx.prog.T.units upath then Some (Mod (upath, [])) else None

let rec member ctx p m =
  match p with
  | Lib dir -> same_dir ctx ~dir m
  | Mod (upath, chain) -> (
      let alias =
        match (chain, Hashtbl.find_opt ctx.prog.T.units upath) with
        | [], Some u -> List.assoc_opt m u.T.u_aliases
        | _ -> None
      in
      match alias with
      | Some parts -> global_path ctx upath parts
      | None ->
          let sub = chain @ [ m ] in
          if Hashtbl.mem ctx.subs (T.key upath (String.concat "." sub)) then
            Some (Mod (upath, sub))
          else None)

(* A path seen at the top of unit [upath], with no local bindings. *)
and global_path ctx upath = function
  | [] -> None
  | m :: rest ->
      let head =
        match T.lib_dir m with
        | Some dir -> Some (Lib dir)
        | None -> same_dir ctx ~dir:(Filename.dirname upath) m
      in
      List.fold_left
        (fun acc m -> Option.bind acc (fun p -> member ctx p m))
        head rest

let resolve_path ctx upath env parts =
  match parts with
  | [] -> None
  | m :: rest ->
      let rec head = function
        | Alias (n, p) :: _ when String.equal n m -> Some p
        | Open p :: env -> (
            match member ctx p m with Some q -> Some q | None -> head env)
        | _ :: env -> head env
        | [] -> global_path ctx upath [ m ]
      in
      List.fold_left
        (fun acc m -> Option.bind acc (fun p -> member ctx p m))
        (head env) rest

(* The def a value path names, as [(unit, dotted name)]. *)
let resolve_value ctx upath env parts =
  match List.rev parts with
  | [] -> None
  | [ n ] ->
      List.find_map
        (function
          | Open (Mod (u, chain)) when has_def ctx u (dotted chain n) ->
              Some (u, dotted chain n)
          | Open _ | Alias _ -> None)
        env
  | n :: rev_mods -> (
      match resolve_path ctx upath env (List.rev rev_mods) with
      | Some (Mod (u, chain)) when has_def ctx u (dotted chain n) ->
          Some (u, dotted chain n)
      | Some _ | None -> None)

let rec peel_constraint me =
  match me.pmod_desc with
  | Pmod_constraint (me, _) -> peel_constraint me
  | _ -> me

(* The [T.key]s of the defs used from a unit other than their own, and
   the key prefixes ["unit|"] or ["unit|A.B."] of the modules used
   whole. *)
let uses ctx (files : Source.file list) =
  let used = Hashtbl.create 1024 in
  let whole = ref [] in
  List.iter
    (fun (f : Source.file) ->
      match f.Source.ast with
      | Source.Signature _ -> ()
      | Source.Structure str ->
          let upath = Rules.normalize f.Source.path in
          let env = ref [] in
          let scoped bindings k =
            let saved = !env in
            env := List.rev_append bindings !env;
            k ();
            env := saved
          in
          let path parts = resolve_path ctx upath !env parts in
          let value parts =
            match resolve_value ctx upath !env parts with
            | Some (u, n) when not (String.equal u upath) ->
                Hashtbl.replace used (T.key u n) ()
            | Some _ | None -> ()
          in
          let module_ident parts =
            match path parts with
            | Some (Mod (u, chain)) when not (String.equal u upath) ->
                let sub = List.map (fun m -> m ^ ".") chain in
                whole := T.key u (String.concat "" sub) :: !whole
            | Some _ | None -> ()
          in
          (* A module bound by name: an alias when it names a path. *)
          let bind_module it name me =
            let me' = peel_constraint me in
            match me'.pmod_desc with
            | Pmod_ident l -> (
                match path (T.lid_parts l.txt) with
                | Some p -> [ Alias (name, p) ]
                | None -> [])
            | _ ->
                it.Ast_iterator.module_expr it me;
                [ Alias (name, Mod (upath, [ name ])) ]
          in
          let opened (od : open_declaration) =
            match od.popen_expr.pmod_desc with
            | Pmod_ident l -> (
                match path (T.lid_parts l.txt) with
                | Some p -> [ Open p ]
                | None -> [])
            | _ -> []
          in
          let super = Ast_iterator.default_iterator in
          let it =
            {
              super with
              structure =
                (fun it items ->
                  scoped [] (fun () -> super.structure it items));
              structure_item =
                (fun it si ->
                  match si.pstr_desc with
                  | Pstr_open od -> env := List.rev_append (opened od) !env
                  | Pstr_module { pmb_name = { txt = Some n; _ }; pmb_expr; _ }
                    ->
                      env := List.rev_append (bind_module it n pmb_expr) !env
                  | _ -> super.structure_item it si);
              module_expr =
                (fun it me ->
                  match me.pmod_desc with
                  | Pmod_ident l -> module_ident (T.lid_parts l.txt)
                  | _ -> super.module_expr it me);
              expr =
                (fun it e ->
                  match e.pexp_desc with
                  | Pexp_ident l -> value (T.lid_parts l.txt)
                  | Pexp_open (od, body) ->
                      scoped (opened od) (fun () -> it.expr it body)
                  | Pexp_letmodule ({ txt = Some n; _ }, me, body) ->
                      scoped (bind_module it n me) (fun () -> it.expr it body)
                  | Pexp_letop { let_; ands; _ } ->
                      List.iter
                        (fun (op : binding_op) -> value [ op.pbop_op.txt ])
                        (let_ :: ands);
                      super.expr it e
                  | _ -> super.expr it e);
            }
          in
          it.structure it str)
    files;
  (used, !whole)

let check (prog : T.program) (files : Source.file list) : Finding.t list =
  let used, whole = uses (make_ctx prog) files in
  let mlis =
    List.filter_map
      (fun (f : Source.file) ->
        match f.Source.kind with
        | Source.Intf -> Some (Rules.normalize f.Source.path)
        | Source.Impl -> None)
      files
  in
  let has_mli upath = List.exists (String.equal (upath ^ "i")) mlis in
  let is_used (d : T.def) =
    let k = T.key d.T.d_unit d.T.d_name in
    Hashtbl.mem used k
    || List.exists (fun prefix -> String.starts_with ~prefix k) whole
  in
  let hint =
    match Rules.find_rule "R13" with Some r -> r.Rules.hint | None -> ""
  in
  T.all_defs prog
  |> List.filter (fun (d : T.def) ->
         d.T.d_public && d.T.d_kind <> T.Nested && has_mli d.T.d_unit
         && not (is_used d))
  |> List.map (fun (d : T.def) ->
         let pos = d.T.d_loc.Location.loc_start in
         Finding.make ~file:d.T.d_unit ~line:pos.Lexing.pos_lnum
           ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
           ~rule:"R13"
           ~message:
             (Printf.sprintf "export \"%s\" has no caller outside %s"
                d.T.d_name d.T.d_unit)
           ~hint)
  |> List.sort Finding.compare
