(* Per-function summaries for the interprocedural pass.

   For each definition in the [Typed_source] program we run a small
   abstract interpreter over its body tracking the set of locks held:
   [must] (held on every path — used to *satisfy* guard obligations) and
   [may] (held on some path — used to *detect* reentrancy).  Along the
   way we record the events the R9..R12 checkers consume: lock
   acquisitions, guarded-field accesses, blocking operations, effectful
   identifiers (R11), raise sites not caught locally (R12), and every
   call site with the lock set and handler stack in force.

   Critical sections have three spellings here, all primitive to the
   analysis: [Mutex.lock]/[unlock] pairs (tracked linearly),
   [Mutex.protect m f], and the [Shard.with_key]/[fold]/[mapi] family.
   Shard entry points are primitive *by head module* so
   the lock token is derived from the shard table at the call site
   ("catalog.ml:shards" vs "manager.ml:shards") rather than collapsing
   through shard.ml's single internal mutex array.

   Project-local lock-scoped wrappers ([Catalog.with_names],
   [Manager.with_session]) are discovered by a fixpoint: a function that
   invokes a parameter while holding locks becomes a wrapper, and call
   sites passing a function literal to it analyze that literal under the
   wrapper's locks.  Closures passed to [Thread.create]/[Domain.spawn]/
   [Pool.async]/[Pool.submit] run on another thread with nothing held:
   they are analyzed from the empty lock set and their events are marked
   deferred so the effect propagation does not charge them to the
   spawning function. *)

(* Matching [Parsetree] exhaustively is impractical — its variants have
   dozens of constructors and extend with the language — so catch-alls
   are the norm here; fragile-match stays off for this file only. *)
[@@@warning "-4"]

open Parsetree
module T = Typed_source

(* ------------------------------------------------------------------ *)
(* Lock tokens                                                         *)
(* ------------------------------------------------------------------ *)

module Tok = struct
  type kind = Kmutex | Kshard

  type t = { unit_path : string; name : string; kind : kind }

  (* Identity ignores [kind]: a [@lint.guarded_by "shards"] obligation is
     met by the Shard token of the same unit and name. *)
  let compare a b =
    match String.compare a.unit_path b.unit_path with
    | 0 -> String.compare a.name b.name
    | c -> c

  let pp t =
    Printf.sprintf "%s:%s" (Filename.basename t.unit_path) t.name
end

module Tset = Set.Make (Tok)

let pp_tokens ts =
  String.concat ", " (List.map Tok.pp (Tset.elements ts))

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type site = {
  s_parts : string list;  (* syntactic path, for messages *)
  s_target : T.target;
  s_loc : Location.t;
  s_must : Tset.t;
  s_caught : string list;  (* exception names handled around the site *)
  s_deferred : bool;
}

type acquire = {
  a_tok : Tok.t;
  a_held : Tset.t;  (* may-held just before acquiring *)
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
  b_self : Tok.t option;  (* Condition.wait releases its own mutex *)
  b_must : Tset.t;
  b_loc : Location.t;
  b_deferred : bool;
}

type summary = {
  sm_def : T.def;
  sm_calls : site list;
  sm_acquires : acquire list;
  sm_accesses : access list;
  sm_blocking : blocking list;
  sm_forbidden : (string * Location.t) list;
  sm_raises : (string * Location.t * bool) list;  (* uncaught locally *)
  sm_exit_may : Tset.t;  (* locks possibly still held at return *)
}

type t = {
  summaries : (string, summary) Hashtbl.t;  (* key: unit ^ "|" ^ name *)
  wrappers : (string, (string * Tset.t) list) Hashtbl.t;
  rounds : int;
}

(* ------------------------------------------------------------------ *)
(* Classifiers                                                         *)
(* ------------------------------------------------------------------ *)

let last_two parts =
  match List.rev parts with
  | [] -> ("", "")
  | [ f ] -> ("", f)
  | f :: m :: _ -> (m, f)

let dotted parts = String.concat "." parts

(* Unix entry points that can park the calling thread (IO, sleeps,
   process waits).  Fast metadata calls (getsockname, setsockopt,
   pipe, socket, bind, listen, shutdown) are deliberately absent, as is
   [Unix.gettimeofday] — the Obs clock must be readable under a lock. *)
let blocking_unix =
  [
    "accept"; "connect"; "read"; "write"; "write_substring"; "single_write";
    "recv"; "recvfrom"; "send"; "sendto"; "select"; "sleep"; "sleepf";
    "wait"; "waitpid"; "system"; "openfile"; "close";
  ]

let channel_fns =
  [
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "input_line";
    "input_char"; "input_byte"; "really_input"; "really_input_string";
    "output_string"; "output_char"; "output_byte"; "read_line"; "close_in";
    "close_out"; "close_in_noerr"; "close_out_noerr";
  ]

let mem s l = List.exists (String.equal s) l

let is_blocking parts =
  match last_two parts with
  | "Unix", f -> mem f blocking_unix
  | "Thread", ("join" | "delay") -> true
  | "Domain", "join" -> true
  | "Pool", "submit" -> true
  | ("In_channel" | "Out_channel"), _ -> true
  | "", f -> mem f channel_fns
  | _ -> false

(* R11: effects the sans-IO tiers must never reach. *)
let forbidden_effect parts =
  match parts with
  | [] -> false
  | head :: _ -> (
      mem head [ "Unix"; "Mutex"; "Condition"; "Domain"; "Thread" ]
      ||
      match last_two parts with
      | ("In_channel" | "Out_channel"), _ -> true
      | "Sys", "time" -> true
      | "", f -> mem f channel_fns
      | _ -> false)

(* Raising partial stdlib calls mapped to the exception they raise. *)
let partial_raises parts =
  match last_two parts with
  | "List", ("hd" | "tl" | "nth") -> Some "Failure"
  | "List", ("find" | "assoc") -> Some "Not_found"
  | "Option", "get" -> Some "Invalid_argument"
  | "Hashtbl", "find" -> Some "Not_found"
  | "Stack", ("pop" | "top") -> Some "Empty"
  | "Queue", ("pop" | "take" | "peek") -> Some "Empty"
  | "", ("int_of_string" | "float_of_string") -> Some "Failure"
  | m, "find" ->
      let m = String.lowercase_ascii m in
      if String.equal m "map" || String.ends_with ~suffix:"map" m then
        Some "Not_found"
      else None
  | _ -> None

let shard_fn_arg = function
  | "with_key" -> Some 2
  | "mapi" -> Some 1
  | "fold" -> None  (* labelled ~f *)
  | _ -> None

let is_shard_primitive f =
  mem f [ "with_key"; "fold"; "mapi" ]

(* Spawn primitives whose function argument runs on another thread:
   (head module, function, positional index of the closure). *)
let deferred_spawn = function
  | "Thread", "create" -> Some 0
  | "Domain", "spawn" -> Some 0
  | "Pool", ("async" | "submit") -> Some 1
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)
(* ------------------------------------------------------------------ *)

let rec fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_newtype (_, e) | Pexp_constraint (e, _) -> fun_literal e
  | _ -> false

(* The display name of a lock expression: the last field or variable on
   its path, unwrapping array indexing ([t.mutexes.(i)] -> "mutexes"). *)
let rec lock_base e =
  match e.pexp_desc with
  | Pexp_ident l | Pexp_field (_, l) -> (
      match List.rev (T.lid_parts l.txt) with
      | n :: _ -> Some n
      | [] -> None)
  | Pexp_constraint (e, _) -> lock_base e
  | Pexp_apply (f, args) -> (
      match f.pexp_desc with
      | Pexp_ident { txt; _ }
        when match last_two (T.lid_parts txt) with
             | "Array", ("get" | "unsafe_get") -> true
             | _ -> false -> (
          match List.find_opt (fun (l, _) -> l = Asttypes.Nolabel) args with
          | Some (_, a) -> lock_base a
          | None -> None)
      | _ -> None)
  | _ -> None

let lock_token ~unit_path ~kind e =
  let name =
    match lock_base e with
    | Some n -> n
    | None ->
        Printf.sprintf "<lock@%d>" e.pexp_loc.Location.loc_start.Lexing.pos_lnum
  in
  { Tok.unit_path; name; kind }

let positional args = List.filter_map
    (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
    args

let labelled name args =
  List.find_map
    (fun (l, a) ->
      match l with
      | Asttypes.Labelled n when String.equal n name -> Some a
      | _ -> None)
    args

(* Pair call-site arguments with the callee's parameters: labelled args
   match by label, positional args fill the non-optional parameters in
   declaration order. *)
let match_params (params : T.param list) args =
  let pos = ref (positional args) in
  List.filter_map
    (fun (p : T.param) ->
      match p.p_label with
      | Asttypes.Labelled n | Asttypes.Optional n -> (
          match (labelled n args, p.p_name) with
          | Some a, Some pn -> Some (pn, a)
          | Some a, None -> Some (n, a)
          | None, _ ->
              if p.p_label = Asttypes.Labelled n then (
                (* An unlabelled application can still fill it. *)
                match !pos with
                | a :: rest when p.p_name <> None ->
                    pos := rest;
                    Option.map (fun pn -> (pn, a)) p.p_name
                | _ -> None)
              else None)
      | Asttypes.Nolabel -> (
          match !pos with
          | a :: rest ->
              pos := rest;
              Option.map (fun pn -> (pn, a)) p.p_name
          | [] -> None))
    params

(* Exception names a pattern catches; "*" means everything. *)
let rec pat_exn_names p =
  match p.ppat_desc with
  | Ppat_construct (l, _) -> (
      match List.rev (T.lid_parts l.txt) with n :: _ -> [ n ] | [] -> [ "*" ])
  | Ppat_or (a, b) -> pat_exn_names a @ pat_exn_names b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pat_exn_names p
  | _ -> [ "*" ]

(* Handler patterns of a try (or the exception cases of a match).
   Guarded handlers may decline, so they catch nothing for R12. *)
let handled_exns ~exception_cases cases =
  List.concat_map
    (fun c ->
      if c.pc_guard <> None then []
      else
        match (exception_cases, c.pc_lhs.ppat_desc) with
        | false, _ -> pat_exn_names c.pc_lhs
        | true, Ppat_exception p -> pat_exn_names p
        | true, _ -> [])
    cases

let catches caught exn =
  mem "*" caught || (not (String.equal exn "*")) && mem exn caught

(* ------------------------------------------------------------------ *)
(* The local abstract interpreter                                      *)
(* ------------------------------------------------------------------ *)

type state = { must : Tset.t; may : Tset.t }

let empty_state = { must = Tset.empty; may = Tset.empty }

let join a b = { must = Tset.inter a.must b.must; may = Tset.union a.may b.may }

let add_tok tok st = { must = Tset.add tok st.must; may = Tset.add tok st.may }

let remove_tok tok st =
  { must = Tset.remove tok st.must; may = Tset.remove tok st.may }

type ctx = { deferred : bool; caught : string list }

type acc = {
  mutable calls : site list;
  mutable acquires : acquire list;
  mutable accesses : access list;
  mutable blocking : blocking list;
  mutable forbidden : (string * Location.t) list;
  mutable raises : (string * Location.t * bool) list;
}

let analyze prog wrappers (def : T.def) : summary =
  let unit_path = def.d_unit in
  let u =
    match Hashtbl.find_opt prog.T.units unit_path with
    | Some u -> u
    | None -> { T.u_path = unit_path; u_dir = Filename.dirname unit_path; u_aliases = [] }
  in
  let params, body = T.peel_params def.d_body in
  let param_names = List.filter_map (fun (p : T.param) -> p.p_name) params in
  let is_param n = mem n param_names in
  let resolve parts = T.resolve prog u ~scope:def.d_name ~is_param parts in
  let acc =
    {
      calls = [];
      acquires = [];
      accesses = [];
      blocking = [];
      forbidden = [];
      raises = [];
    }
  in
  let note_forbidden parts loc =
    if forbidden_effect parts then acc.forbidden <- (dotted parts, loc) :: acc.forbidden
  in
  let note_raise ctx exn loc =
    if not (catches ctx.caught exn) then
      acc.raises <- (exn, loc, ctx.deferred) :: acc.raises
  in
  (* Events attached to any occurrence of an identifier, applied or not:
     the effect classifier (R11), blocking classifier (R10) and the
     partial-call exception map (R12). *)
  let note_ident ctx st parts loc =
    note_forbidden parts loc;
    if is_blocking parts then
      acc.blocking <-
        {
          b_what = dotted parts;
          b_self = None;
          b_must = st.must;
          b_loc = loc;
          b_deferred = ctx.deferred;
        }
        :: acc.blocking;
    match partial_raises parts with
    | Some exn -> note_raise ctx exn loc
    | None -> ()
  in
  let record_call ctx st ?(extra = Tset.empty) ~parts ~target loc =
    acc.calls <-
      {
        s_parts = parts;
        s_target = target;
        s_loc = loc;
        s_must = Tset.union st.must extra;
        s_caught = ctx.caught;
        s_deferred = ctx.deferred;
      }
      :: acc.calls
  in
  let record_acquire ctx st tok loc =
    acc.acquires <-
      { a_tok = tok; a_held = st.may; a_loc = loc; a_deferred = ctx.deferred }
      :: acc.acquires
  in
  (* [walk] threads the lock state through the control flow and returns
     the state at the expression's normal exit. *)
  let rec walk ctx st e : state =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        note_ident ctx st (T.lid_parts txt) loc;
        st
    | Pexp_apply (fn, args) -> apply ctx st e fn args
    | Pexp_field (r, l) ->
        let st = walk ctx st r in
        note_access ctx st l e.pexp_loc;
        st
    | Pexp_setfield (r, l, v) ->
        let st = walk ctx st r in
        let st = walk ctx st v in
        note_access ctx st l e.pexp_loc;
        st
    | Pexp_let (_, vbs, cont) ->
        let st =
          List.fold_left
            (fun st vb ->
              let lifted =
                match T.binding_name vb with
                | Some n ->
                    T.is_function vb.pvb_expr
                    && Hashtbl.mem prog.T.defs
                         (T.key unit_path (def.d_name ^ "." ^ n))
                | None -> false
              in
              if lifted then st  (* analyzed as its own definition *)
              else walk ctx st vb.pvb_expr)
            st vbs
        in
        walk ctx st cont
    | Pexp_sequence (a, b) -> walk ctx (walk ctx st a) b
    | Pexp_ifthenelse (c, t, f) -> (
        let st = walk ctx st c in
        match f with
        | Some f -> join (walk ctx st t) (walk ctx st f)
        | None -> join st (walk ctx st t))
    | Pexp_match (scrut, cases) ->
        let exn_handled = handled_exns ~exception_cases:true cases in
        let sctx = { ctx with caught = exn_handled @ ctx.caught } in
        let st_scrut = walk sctx st scrut in
        branch_cases ctx ~normal:st_scrut ~handler:st cases
    | Pexp_try (bodye, cases) ->
        let caught = handled_exns ~exception_cases:false cases in
        let bctx = { ctx with caught = caught @ ctx.caught } in
        let st_body = walk bctx st bodye in
        branch_cases ctx ~normal:st_body ~handler:st
          (List.map (fun c -> { c with pc_lhs = c.pc_lhs }) cases)
        |> fun st_cases -> join st_body st_cases
    | Pexp_while (c, b) ->
        let st_c = walk ctx st c in
        join st_c (walk ctx st_c b)
    | Pexp_for (_, e1, e2, _, b) ->
        let st = walk ctx (walk ctx st e1) e2 in
        join st (walk ctx st b)
    | Pexp_fun _ | Pexp_function _ ->
        (* A closure not consumed by a recognized combinator: scan it for
           events under the current locks, keep the outer state. *)
        walk_literal ctx st e;
        st
    | Pexp_assert inner ->
        let st = walk ctx st inner in
        (match inner.pexp_desc with
        | Pexp_construct ({ txt = Longident.Lident "true"; _ }, None) -> ()
        | _ -> note_raise ctx "Assert_failure" e.pexp_loc);
        st
    | Pexp_lazy inner ->
        walk_literal ctx st inner;
        st
    | Pexp_tuple es | Pexp_array es ->
        List.fold_left (fun st e -> walk ctx st e) st es
    | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
        match arg with Some a -> walk ctx st a | None -> st)
    | Pexp_record (fields, base) ->
        let st = match base with Some b -> walk ctx st b | None -> st in
        List.fold_left (fun st (_, v) -> walk ctx st v) st fields
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) ->
        walk ctx st e
    | Pexp_open (_, e) | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) ->
        walk ctx st e
    | Pexp_letop { let_; ands; body; _ } ->
        (* Monadic binds in this codebase ([let*] over result) apply the
           body immediately: thread the bound expressions then the body. *)
        let st = walk ctx st let_.pbop_exp in
        let st =
          List.fold_left (fun st a -> walk ctx st a.pbop_exp) st ands
        in
        walk ctx st body
    | _ -> st
  and note_access ctx st l loc =
    ignore ctx;
    match List.rev (T.lid_parts l.txt) with
    | field :: _ -> (
        match T.unit_guard prog unit_path field with
        | Some g ->
            acc.accesses <-
              {
                x_field = field;
                x_guard = { Tok.unit_path; name = g.T.g_lock; kind = Tok.Kmutex };
                x_must = st.must;
                x_loc = loc;
              }
              :: acc.accesses
        | None -> ())
    | [] -> ()
  and branch_cases ctx ~normal ~handler cases =
    let outs =
      List.map
        (fun c ->
          let start =
            match c.pc_lhs.ppat_desc with
            | Ppat_exception _ -> handler
            | _ -> normal
          in
          let start =
            match c.pc_guard with Some g -> walk ctx start g | None -> start
          in
          walk ctx start c.pc_rhs)
        cases
    in
    match outs with
    | [] -> normal
    | first :: rest -> List.fold_left join first rest
  (* Scan a function literal's body for events under [st], discarding
     its exit state (the closure may run zero or many times). *)
  and walk_literal ctx st e =
    let _, inner = T.peel_params e in
    match inner.pexp_desc with
    | Pexp_function cases ->
        ignore (branch_cases ctx ~normal:st ~handler:st cases)
    | _ -> ignore (walk ctx st inner)
  (* A critical-section combinator: [fn_arg] runs under [st + tok]. *)
  and critical_section ctx st ~tok ~fn_arg ~other_args loc =
    record_acquire ctx st tok loc;
    List.iter (fun a -> ignore (walk ctx st a)) other_args;
    (match fn_arg with
    | Some a when fun_literal a ->
        (* Thread the literal's state so a lock leaked inside the
           critical section stays visible after it. *)
        let params, inner = T.peel_params a in
        ignore params;
        let st_in = add_tok tok st in
        let st_out =
          match inner.pexp_desc with
          | Pexp_function cases ->
              branch_cases ctx ~normal:st_in ~handler:st_in cases
          | _ -> walk ctx st_in inner
        in
        ignore st_out
    | Some a -> apply_fn_value ctx st ~extra:(Tset.singleton tok) a
    | None -> ());
    st
  (* A function value (not a literal) invoked by a combinator while
     [extra] locks are held: parameters become wrapper evidence,
     resolved functions become call edges. *)
  and apply_fn_value ctx st ~extra a =
    match a.pexp_desc with
    | Pexp_ident { txt; loc } -> (
        let parts = T.lid_parts txt in
        note_ident ctx st parts loc;
        match resolve parts with
        | (T.Param _ | T.Internal _) as target ->
            record_call ctx st ~extra ~parts ~target loc
        | T.External _ -> ())
    | _ -> ignore (walk ctx st a)
  and apply ctx st whole fn args =
    match fn.pexp_desc with
    | Pexp_ident { txt = Longident.Lident "@@"; _ } -> (
        match positional args with
        | [ f; x ] -> apply ctx st whole f [ (Asttypes.Nolabel, x) ]
        | _ -> fallback_apply ctx st fn args)
    | Pexp_ident { txt = Longident.Lident "|>"; _ } -> (
        match positional args with
        | [ x; f ] -> apply ctx st whole f [ (Asttypes.Nolabel, x) ]
        | _ -> fallback_apply ctx st fn args)
    | Pexp_ident { txt; loc } -> apply_ident ctx st ~loc (T.lid_parts txt) args
    | _ -> fallback_apply ctx st fn args
  and fallback_apply ctx st fn args =
    let st = walk ctx st fn in
    List.fold_left (fun st (_, a) -> walk ctx st a) st args
  and apply_ident ctx st ~loc parts args =
    let m, f = last_two parts in
    let pos = positional args in
    match (m, f, pos) with
    | "Mutex", "lock", [ m_expr ] ->
        let st = walk ctx st m_expr in
        let tok = lock_token ~unit_path ~kind:Tok.Kmutex m_expr in
        note_forbidden parts loc;
        record_acquire ctx st tok loc;
        add_tok tok st
    | "Mutex", "unlock", [ m_expr ] ->
        let st = walk ctx st m_expr in
        note_forbidden parts loc;
        remove_tok (lock_token ~unit_path ~kind:Tok.Kmutex m_expr) st
    | "Mutex", "protect", m_expr :: rest ->
        let st = walk ctx st m_expr in
        let tok = lock_token ~unit_path ~kind:Tok.Kmutex m_expr in
        note_forbidden parts loc;
        critical_section ctx st ~tok
          ~fn_arg:(match rest with a :: _ -> Some a | [] -> None)
          ~other_args:[] loc
    | "Condition", "wait", [ c_expr; m_expr ] ->
        let st = walk ctx (walk ctx st c_expr) m_expr in
        note_forbidden parts loc;
        acc.blocking <-
          {
            b_what = "Condition.wait";
            b_self = Some (lock_token ~unit_path ~kind:Tok.Kmutex m_expr);
            b_must = st.must;
            b_loc = loc;
            b_deferred = ctx.deferred;
          }
          :: acc.blocking;
        st
    | "Shard", f, (t_expr :: _ as pos) when is_shard_primitive f ->
        let st = walk ctx st t_expr in
        let tok = lock_token ~unit_path ~kind:Tok.Kshard t_expr in
        let fn_arg, others =
          match shard_fn_arg f with
          | Some i ->
              ( List.nth_opt pos i,
                List.filteri (fun j _ -> j <> 0 && j <> i) pos )
          | None ->
              (* fold: the body is ~f, ~init threads normally. *)
              ( labelled "f" args,
                match labelled "init" args with
                | Some a -> [ a ]
                | None -> List.filteri (fun j _ -> j <> 0) pos )
        in
        critical_section ctx st ~tok ~fn_arg ~other_args:others loc
    | ("" | "Stdlib"), "failwith", _ ->
        let st = List.fold_left (fun st (_, a) -> walk ctx st a) st args in
        note_raise ctx "Failure" loc;
        st
    | ("" | "Stdlib"), "invalid_arg", _ ->
        let st = List.fold_left (fun st (_, a) -> walk ctx st a) st args in
        note_raise ctx "Invalid_argument" loc;
        st
    | ("" | "Stdlib"), ("raise" | "raise_notrace"), exn :: _ ->
        let st = List.fold_left (fun st (_, a) -> walk ctx st a) st args in
        let name =
          match exn.pexp_desc with
          | Pexp_construct (l, _) -> (
              match List.rev (T.lid_parts l.txt) with
              | n :: _ -> n
              | [] -> "*")
          | _ -> "*"  (* a re-raised variable: unknown constructor *)
        in
        note_raise ctx name loc;
        st
    | _ -> (
        match deferred_spawn (m, f) with
        | Some i ->
            note_ident ctx st parts loc;
            let fn_arg = List.nth_opt pos i in
            List.iteri
              (fun j a -> if j <> i then ignore (walk ctx st a))
              pos;
            (match fn_arg with
            | Some a when fun_literal a ->
                walk_literal { deferred = true; caught = [] } empty_state a
            | Some a ->
                apply_fn_value
                  { deferred = true; caught = [] }
                  empty_state ~extra:Tset.empty a
            | None -> ());
            resolved_call ctx st ~consumed:(Option.to_list fn_arg) ~parts ~loc
              args
        | None ->
            note_ident ctx st parts loc;
            resolved_call ctx st ~consumed:[] ~parts ~loc args)
  (* A plain call: record the edge if it resolves, instantiate wrapper
     locks over function arguments, walk everything else. *)
  and resolved_call ctx st ~consumed ~parts ~loc args =
    let target = resolve parts in
    let consumed = ref consumed in
    (match target with
    | T.Internal (tu, tf) ->
        record_call ctx st ~parts ~target loc;
        (match
           ( Hashtbl.find_opt wrappers (T.key tu tf),
             T.find_def prog tu tf )
         with
        | Some wrapper_params, Some callee ->
            let pairs = match_params callee.T.d_params args in
            List.iter
              (fun (pname, toks) ->
                if not (Tset.is_empty toks) then
                  match List.assoc_opt pname pairs with
                  | Some a when fun_literal a ->
                      consumed := a :: !consumed;
                      let st_in = Tset.fold add_tok toks st in
                      walk_literal ctx st_in a
                  | Some a when (match a.pexp_desc with
                                 | Pexp_ident _ -> true
                                 | _ -> false) ->
                      consumed := a :: !consumed;
                      apply_fn_value ctx st ~extra:toks a
                  | Some _ | None -> ())
              wrapper_params
        | _ -> ())
    | T.Param p ->
        record_call ctx st ~parts ~target:(T.Param p) loc
    | T.External _ -> ());
    List.fold_left
      (fun st (_, a) ->
        if List.memq a !consumed then st else walk ctx st a)
      st args
  in
  let exit_state =
    let ctx = { deferred = false; caught = [] } in
    match body.pexp_desc with
    | Pexp_function cases ->
        branch_cases ctx ~normal:empty_state ~handler:empty_state cases
    | _ -> walk ctx empty_state body
  in
  {
    sm_def = def;
    sm_calls = List.rev acc.calls;
    sm_acquires = List.rev acc.acquires;
    sm_accesses = List.rev acc.accesses;
    sm_blocking = List.rev acc.blocking;
    sm_forbidden = List.rev acc.forbidden;
    sm_raises = List.rev acc.raises;
    sm_exit_may = exit_state.may;
  }

(* ------------------------------------------------------------------ *)
(* Wrapper fixpoint                                                    *)
(* ------------------------------------------------------------------ *)

(* A function is a lock-scoped wrapper for parameter [p] if every
   invocation of [p] in its body happens with a common non-empty lock
   set: the intersection is the guarantee call sites may rely on. *)
let derive_wrappers summaries =
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun k (sm : summary) ->
      let by_param = Hashtbl.create 4 in
      List.iter
        (fun s ->
          match s.s_target with
          | T.Param p ->
              let cur = Hashtbl.find_opt by_param p in
              let toks =
                match cur with
                | Some toks -> Tset.inter toks s.s_must
                | None -> s.s_must
              in
              Hashtbl.replace by_param p toks
          | T.Internal _ | T.External _ -> ())
        sm.sm_calls;
      let entries =
        Hashtbl.fold
          (fun p toks l ->
            if Tset.is_empty toks then l else (p, toks) :: l)
          by_param []
      in
      match entries with
      | [] -> ()
      | _ ->
          Hashtbl.replace out k
            (List.sort (fun (a, _) (b, _) -> String.compare a b) entries))
    summaries;
  out

let wrappers_equal a b =
  let render t =
    Hashtbl.fold
      (fun k v l ->
        (k, List.map (fun (p, toks) -> (p, Tset.elements toks)) v) :: l)
      t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  render a = render b

let max_rounds = 6

let build (prog : T.program) : t =
  let defs = T.all_defs prog in
  let rec fix wrappers round =
    let summaries = Hashtbl.create 256 in
    List.iter
      (fun (d : T.def) ->
        Hashtbl.replace summaries (T.key d.d_unit d.d_name)
          (analyze prog wrappers d))
      defs;
    let next = derive_wrappers summaries in
    if round >= max_rounds || wrappers_equal wrappers next then
      { summaries; wrappers = next; rounds = round }
    else fix next (round + 1)
  in
  fix (Hashtbl.create 16) 1
