(* The rule catalog and its parsetree implementations.

   Every rule is syntactic: it sees the parsetree of one file (plus, for
   R6, the project file list) and never type information.  That makes the
   checks fast and predictable but deliberately pessimistic — a flagged
   site that is provably fine is annotated with [@lint.allow "Rn"] and a
   proof comment rather than silenced globally (see doc/LINTING.md).

   Rule summary:
     R1  no polymorphic =/<>/compare/Hashtbl.hash where Value.t flows
     R2  no raising partial stdlib calls in lib/ (use _opt variants)
     R3  no List.length / @ / List.append inside loop bodies (quadratic)
     R4  no wall clocks or ambient randomness outside timer/obs
     R5  no stdout printing in lib/ outside the table/chart renderers
     R6  every lib/ module has an .mli
     R7  no Obj.magic / Obj.repr / Obj.obj
     R8  no catch-all try ... with _ -> *)

(* Matching [Parsetree] exhaustively is impractical — its variants have
   dozens of constructors and extend with the language — so catch-alls
   are the norm here; fragile-match stays off for this file only. *)
[@@@warning "-4"]

open Parsetree

type rule = { id : string; title : string; hint : string }

let catalog =
  [
    {
      id = "R1";
      title = "polymorphic comparison in a Value-handling module";
      hint =
        "use Value.eq/Value.equal/Value.compare (or Int.equal, String.equal, \
         ...); polymorphic = treats Null = Null as true";
    };
    {
      id = "R2";
      title = "raising partial function in lib/";
      hint =
        "use the _opt variant and handle None, or [@lint.allow \"R2\"] with \
         a comment proving the call total";
    };
    {
      id = "R3";
      title = "List.length/@/List.append inside a loop body";
      hint =
        "hoist it out of the loop or keep a counter/accumulator — this is \
         the O(n^2) shape of the PR 1 IGS sampling-loop bug";
    };
    {
      id = "R4";
      title = "nondeterministic clock or entropy source";
      hint =
        "take a Util.Prng.t argument or go through Util.Timer/Obs — traces \
         and QCheck replays must be reproducible";
    };
    {
      id = "R5";
      title = "direct stdout printing in lib/";
      hint = "return strings, use Fmt/Logs, or render via Ascii_table/Chart";
    };
    {
      id = "R6";
      title = "lib/ module without an .mli";
      hint = "add an interface file pinning the public surface";
    };
    {
      id = "R7";
      title = "unsafe Obj primitive";
      hint = "restructure the types; Obj.magic is never load-bearing here";
    };
    {
      id = "R8";
      title = "catch-all exception handler";
      hint = "match the specific exceptions; with _ -> hides real bugs";
    };
    {
      id = "R9";
      title = "lock discipline around [@lint.guarded_by] state";
      hint =
        "touch guarded fields only inside Mutex.protect / Shard.with_key \
         critical sections, never re-acquire a held lock, and hold at most \
         one shard lock at a time (lib/server/shard.mli contract)";
    };
    {
      id = "R10";
      title = "blocking operation reachable while holding a lock";
      hint =
        "release the mutex before IO, Pool.submit, joins, or waiting on a \
         foreign condition — blocking under a lock convoys every other \
         domain";
    };
    {
      id = "R11";
      title = "sans-IO tier reaching IO, threads, or ambient clocks";
      hint =
        "lib/core, lib/relational and lib/sat must stay pure: inject effects \
         from the service layer or route them through the Obs boundary";
    };
    {
      id = "R12";
      title = "exception reachable from the Protocol.decode/Framing surface";
      hint =
        "decoders are total: return Error frames for garbage input; add a \
         handler or use the _opt variant on the raising path";
    };
    {
      id = "R13";
      title = "export with no caller outside its module";
      hint =
        "delete it, or drop it from the .mli if only its own module uses \
         it; an oracle kept for tests takes [@lint.allow \"R13\"] with a \
         reason";
    };
  ]

let find_rule id = List.find_opt (fun r -> String.equal r.id id) catalog

(* ------------------------------------------------------------------ *)
(* Path scoping                                                        *)
(* ------------------------------------------------------------------ *)

let normalize path =
  let path =
    if String.length path > 1 && path.[0] = '.' && path.[1] = '/' then
      String.sub path 2 (String.length path - 2)
    else path
  in
  String.map (fun c -> if c = '\\' then '/' else c) path

let in_dir dir path = String.starts_with ~prefix:(dir ^ "/") (normalize path)
let is_lib path = in_dir "lib" path
let is_test path = in_dir "test" path
let has_suffix s path = String.ends_with ~suffix:s (normalize path)

(* R4: the only modules allowed to read a wall clock. *)
let clock_allowed path =
  has_suffix "lib/util/timer.ml" path || in_dir "lib/obs" path

(* R5: the only lib/ modules allowed to write to stdout. *)
let print_allowed path =
  has_suffix "lib/util/ascii_table.ml" path || has_suffix "lib/util/chart.ml" path

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec lid_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> lid_parts l @ [ s ]
  | Longident.Lapply (a, b) -> lid_parts a @ lid_parts b

let last_two parts =
  match List.rev parts with
  | [] -> ("", "")
  | [ f ] -> ("", f)
  | f :: m :: _ -> (m, f)

(* ------------------------------------------------------------------ *)
(* Per-rule ident classification                                       *)
(* ------------------------------------------------------------------ *)

(* R2: partial stdlib calls that raise instead of returning an option.
   [M.find] is matched for Hashtbl and for *_map / *Map modules (the
   functor-made maps of the engine); find_opt never matches. *)
let partial_call parts =
  let m, f = last_two parts in
  match (m, f) with
  | "List", ("hd" | "tl" | "nth" | "find" | "assoc") -> true
  | "Option", "get" -> true
  | "Hashtbl", "find" -> true
  | "Stack", ("pop" | "top") -> true
  | "Queue", ("pop" | "take" | "peek") -> true
  | m, "find" ->
      let m = String.lowercase_ascii m in
      String.equal m "map" || String.ends_with ~suffix:"map" m
  | _ -> false

(* R4: ambient entropy and wall clocks.  The splitmix64 Util.Prng and the
   Obs clock are the only sanctioned sources. *)
let nondeterministic parts =
  List.exists (String.equal "Random") parts
  ||
  match last_two parts with
  | "Unix", ("gettimeofday" | "time") -> true
  | "Sys", "time" -> true
  | _ -> false

(* R5: direct stdout output. *)
let stdout_print parts =
  match last_two parts with
  | "Printf", "printf" -> true
  | "Format", ("printf" | "print_string" | "print_newline") -> true
  | ( "",
      ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" ) ) ->
      true
  | _ -> false

(* R7: unsafe coercions. *)
let obj_primitive parts =
  match last_two parts with
  | "Obj", ("magic" | "repr" | "obj") -> true
  | _ -> false

(* R3: calls that are linear in a list and therefore quadratic in a loop. *)
let linear_list_op parts =
  match last_two parts with
  | "List", ("length" | "append") -> true
  | "", "@" -> true
  | _ -> false

(* R3: higher-order functions whose function-literal argument is a loop
   body, plus the engine's own iteration entry points. *)
let is_hof_loop parts =
  match last_two parts with
  | m, ( "iter" | "iteri" | "map" | "mapi" | "fold" | "fold_left"
       | "fold_right" | "filter" | "filter_map" | "concat_map" | "for_all"
       | "exists" | "partition" | "init" ) ->
      not (String.equal m "")
  | _ -> false

(* R1: the polymorphic structural operations. *)
let poly_eq_op = function "=" | "<>" -> true | _ -> false

let poly_compare parts =
  match parts with
  | [ "compare" ] | [ "Stdlib"; "compare" ] -> true
  | _ -> false

let poly_hash parts =
  match parts with
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] -> true
  | _ -> false

(* R1 exemption: comparing against a shallow literal (0, "x", [], None,
   a nullary constructor...) never recurses into a Value.t.  The one
   nullary constructor NOT exempted is [Null]: in a Value-handling module
   [x = Value.Null] is exactly the comparison where polymorphic = lies
   (Null = Null is true, join semantics say NULL never matches). *)
let rec shallow_operand e =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (l, None) -> (
      match List.rev (lid_parts l.txt) with
      | "Null" :: _ -> false
      | _ -> true)
  | Pexp_variant (_, None) -> true
  | Pexp_constraint (e, _) -> shallow_operand e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Handles-Value detection (R1 scope)                                  *)
(* ------------------------------------------------------------------ *)

(* A module "handles Value.t/Tuple.t" if any identifier path in it
   mentions a Value or Tuple module (aliases like
   [module Tuple = Jqi_relational.Tuple] are caught through their
   right-hand side), or if it *is* the implementation of one. *)
let mentions_value_ident parts =
  List.exists (fun p -> String.equal p "Value" || String.equal p "Tuple") parts

let handles_value path (str : structure) =
  has_suffix "relational/value.ml" path
  || has_suffix "relational/tuple.ml" path
  ||
  let found = ref false in
  let lid l = if mentions_value_ident (lid_parts l) then found := true in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l) -> lid l.txt
          | _ -> ());
          super.expr it e);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr (l, _) | Ptyp_class (l, _) -> lid l.txt
          | _ -> ());
          super.typ it t);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct (l, _) -> lid l.txt
          | _ -> ());
          super.pat it p);
      module_expr =
        (fun it m ->
          (match m.pmod_desc with Pmod_ident l -> lid l.txt | _ -> ());
          super.module_expr it m);
    }
  in
  it.structure it str;
  !found

(* ------------------------------------------------------------------ *)
(* The per-file pass                                                   *)
(* ------------------------------------------------------------------ *)

let finding ~path ~loc ~rule ~message =
  let pos = loc.Location.loc_start in
  let hint = match find_rule rule with Some r -> r.hint | None -> "" in
  Finding.make ~file:path ~line:pos.Lexing.pos_lnum
    ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
    ~rule ~message ~hint

let path_str parts = String.concat "." parts

let check_structure ~path (str : structure) : Finding.t list =
  let path = normalize path in
  let out = ref [] in
  let emit ~loc ~rule message = out := finding ~path ~loc ~rule ~message :: !out in
  let value_module = handles_value path str in
  let lib = is_lib path in
  let apply_r1 = value_module && not (is_test path) in
  (* R3 context: > 0 when syntactically inside a while/for body or a
     function literal passed to an iteration combinator. *)
  let loop_depth = ref 0 in
  let in_loop body =
    incr loop_depth;
    body ();
    decr loop_depth
  in
  let check_ident ~loc parts =
    let dotted = path_str parts in
    if lib && partial_call parts then
      emit ~loc ~rule:"R2" (Printf.sprintf "raising partial call %s" dotted);
    if nondeterministic parts && not (clock_allowed path) then
      emit ~loc ~rule:"R4" (Printf.sprintf "nondeterministic %s" dotted);
    if lib && stdout_print parts && not (print_allowed path) then
      emit ~loc ~rule:"R5" (Printf.sprintf "stdout print %s" dotted);
    if obj_primitive parts then
      emit ~loc ~rule:"R7" (Printf.sprintf "unsafe %s" dotted);
    if !loop_depth > 0 && linear_list_op parts then
      emit ~loc ~rule:"R3"
        (Printf.sprintf "%s inside a loop body (quadratic pattern)" dotted);
    if apply_r1 && poly_compare parts then
      emit ~loc ~rule:"R1" "polymorphic compare in a Value-handling module";
    if apply_r1 && poly_hash parts then
      emit ~loc ~rule:"R1" "Hashtbl.hash in a Value-handling module"
  in
  let super = Ast_iterator.default_iterator in
  let rec is_fun_literal e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> true
    | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> is_fun_literal e
    | _ -> false
  in
  let it =
    {
      super with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } ->
              check_ident ~loc (lid_parts txt);
              super.expr it e
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; loc }; _ }, args)
            when poly_eq_op op ->
              (if apply_r1 then
                 let operands =
                   List.filter_map
                     (function Asttypes.Nolabel, a -> Some a | _ -> None)
                     args
                 in
                 let safe = List.exists shallow_operand operands in
                 if not safe then
                   emit ~loc ~rule:"R1"
                     (Printf.sprintf
                        "polymorphic %s in a Value-handling module (Null %s \
                         Null is %b here)"
                        op op (String.equal op "=")));
              List.iter (fun (_, a) -> it.expr it a) args
          | Pexp_apply (f, args) ->
              let hof =
                match f.pexp_desc with
                | Pexp_ident { txt; _ } -> is_hof_loop (lid_parts txt)
                | _ -> false
              in
              it.expr it f;
              List.iter
                (fun (_, a) ->
                  if hof && is_fun_literal a then in_loop (fun () -> it.expr it a)
                  else it.expr it a)
                args
          | Pexp_while (cond, body) ->
              it.expr it cond;
              in_loop (fun () -> it.expr it body)
          | Pexp_for (pat, e1, e2, _, body) ->
              it.pat it pat;
              it.expr it e1;
              it.expr it e2;
              in_loop (fun () -> it.expr it body)
          | Pexp_try (body, cases) ->
              List.iter
                (fun c ->
                  match (c.pc_lhs.ppat_desc, c.pc_guard) with
                  | Ppat_any, None ->
                      emit ~loc:c.pc_lhs.ppat_loc ~rule:"R8"
                        "catch-all exception handler try ... with _ ->"
                  | _ -> ())
                cases;
              it.expr it body;
              List.iter (it.case it) cases
          | _ -> super.expr it e)
    }
  in
  it.structure it str;
  List.rev !out

let check_file (f : Source.file) : Finding.t list =
  match f.ast with
  | Structure str -> check_structure ~path:f.path str
  | Signature _ -> []

(* R6: every lib/ implementation ships an interface.  [paths] is the full
   discovered file list of the run. *)
let check_missing_mli paths : Finding.t list =
  let have = List.map normalize paths in
  let have_mli p = List.exists (String.equal (p ^ "i")) have in
  List.filter_map
    (fun p ->
      let p = normalize p in
      if is_lib p && String.ends_with ~suffix:".ml" p && not (have_mli p) then
        Some
          (Finding.make ~file:p ~line:1 ~col:0 ~rule:"R6"
             ~message:
               (Printf.sprintf "module %s has no interface file"
                  (Filename.remove_extension (Filename.basename p)))
             ~hint:
               (match find_rule "R6" with Some r -> r.hint | None -> ""))
      else None)
    paths
