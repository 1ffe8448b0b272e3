(* jqlint: one fixture per rule, the shallow-literal and Null exemptions,
   suppression scopes, baseline JSON round-trips, parse-error findings,
   and the clean-tree gate (the repo itself lints clean against
   lint.baseline). *)

module Driver = Jqi_lint.Driver
module Rules = Jqi_lint.Rules
module Finding = Jqi_lint.Finding
module Baseline = Jqi_lint.Baseline
module Json = Jqi_util.Json

(* Rule ids raised by [src] when linted as [path], in source order. *)
let rules_of ?(path = "lib/fixture/fixture.ml") src =
  List.map (fun (f : Finding.t) -> f.Finding.rule) (Driver.lint_source ~path src)

let check ?path name expected src =
  Alcotest.(check (list string)) name expected (rules_of ?path src)

(* --------------------------- rule fixtures -------------------------- *)

(* A module "handles Value" as soon as any identifier path mentions Value
   or Tuple; every R1 fixture does so via a type annotation. *)

let test_r1_poly_eq () =
  check "deep = flagged" [ "R1" ] "let f (a : Value.t) b = a = b";
  check "<> flagged" [ "R1" ] "let f (a : Value.t) b = a <> b";
  check "Null = Null flagged" [ "R1" ]
    "let _ = ignore (Jqi_relational.Value.Null = Jqi_relational.Value.Null)";
  check "= Value.Null flagged" [ "R1" ]
    "let f (a : Value.t) = a = Value.Null";
  check "compare flagged" [ "R1" ]
    "let f (a : Value.t) b = compare a b";
  check "Hashtbl.hash flagged" [ "R1" ]
    "let f (a : Value.t) = Hashtbl.hash a"

let test_r1_exemptions () =
  check "shallow int literal exempt" []
    "let f (a : Value.t) x = ignore a; x = 0";
  check "shallow [] exempt" []
    "let f (a : Value.t) xs = ignore a; xs = []";
  check "shallow None exempt" []
    "let f (a : Value.t) o = ignore a; o = None";
  check "module without Value mention unflagged" [] "let f a b = a = b";
  check ~path:"test/fixture.ml" "R1 skips test/" []
    "let f (a : Value.t) b = a = b"

let test_r2_partial_calls () =
  check "Hashtbl.find flagged" [ "R2" ] "let f h k = Hashtbl.find h k";
  check "List.hd flagged" [ "R2" ] "let f xs = List.hd xs";
  check "Option.get flagged" [ "R2" ] "let f o = Option.get o";
  check "functor map find flagged" [ "R2" ]
    "let f m k = Key_map.find k m";
  check "find_opt fine" [] "let f h k = Hashtbl.find_opt h k";
  check ~path:"bench/fixture.ml" "R2 is lib-only" []
    "let f xs = List.hd xs"

let test_r3_loops () =
  check "List.length in iter body" [ "R3" ]
    "let f xs = List.iter (fun x -> ignore (List.length xs + x)) xs";
  check "@ in fold body" [ "R3" ]
    "let f xs = List.fold_left (fun acc x -> acc @ [ x ]) [] xs";
  check "List.length in while body" [ "R3" ]
    "let f r xs = while !r do r := List.length xs > 0 done";
  check "List.length in for body" [ "R3" ]
    "let f xs = for _ = 1 to 3 do ignore (List.length xs) done";
  check "List.length outside loops fine" []
    "let f xs = List.length xs";
  check "hoisted binding fine" []
    "let f xs = let n = List.length xs in List.iter (fun x -> ignore (n + x)) xs"

let test_r4_nondeterminism () =
  check "Unix.gettimeofday flagged" [ "R4" ]
    "let t () = Unix.gettimeofday ()";
  check "Random flagged" [ "R4" ] "let r () = Random.int 10";
  check "Sys.time flagged" [ "R4" ] "let t () = Sys.time ()";
  check ~path:"lib/util/timer.ml" "timer.ml is the sanctioned clock" []
    "let now () = Unix.gettimeofday ()";
  check ~path:"lib/obs/obs.ml" "lib/obs may read the clock" []
    "let now () = Unix.gettimeofday ()"

let test_r5_printing () =
  check "Printf.printf flagged" [ "R5" ]
    {|let f () = Printf.printf "hi"|};
  check "print_endline flagged" [ "R5" ]
    {|let f () = print_endline "hi"|};
  check ~path:"lib/util/ascii_table.ml" "renderer may print" []
    {|let f () = print_string "|"|};
  check ~path:"bin/fixture.ml" "R5 is lib-only" []
    {|let f () = print_endline "hi"|}

let test_r6_missing_mli () =
  let rules fs = List.map (fun (f : Finding.t) -> f.Finding.rule) fs in
  Alcotest.(check (list string))
    "lib ml without mli" [ "R6" ]
    (rules (Rules.check_missing_mli [ "lib/core/x.ml"; "lib/core/y.mli" ]));
  Alcotest.(check (list string))
    "paired ml+mli fine" []
    (rules (Rules.check_missing_mli [ "lib/core/x.ml"; "lib/core/x.mli" ]));
  Alcotest.(check (list string))
    "bin/ needs no mli" []
    (rules (Rules.check_missing_mli [ "bin/main.ml" ]))

let test_r7_obj () =
  check "Obj.magic flagged" [ "R7" ] "let f x = Obj.magic x";
  check "Obj.repr flagged" [ "R7" ] "let f x = Obj.repr x"

let test_r8_catch_all () =
  check "with _ -> flagged" [ "R8" ]
    "let f g = try g () with _ -> ()";
  check "specific exception fine" []
    "let f g = try g () with Not_found -> ()";
  check "guarded _ fine" []
    "let f g = try g () with e when e = Exit -> ()"

(* --------------------------- suppression ---------------------------- *)

let test_suppression () =
  check "expression [@lint.allow] honored" []
    {|let f h k = (Hashtbl.find h k [@lint.allow "R2"])|};
  check "binding-level attribute honored" []
    {|let f h k = Hashtbl.find h k [@@lint.allow "R2"]|};
  check "floating attribute is file-wide" []
    {|[@@@lint.allow "R2"]
let f h k = Hashtbl.find h k
let g xs = List.hd xs|};
  check "bare [@lint.allow] allows every rule" []
    {|let f x = (Obj.magic x [@lint.allow])|};
  check "wrong rule id does not suppress" [ "R2" ]
    {|let f h k = (Hashtbl.find h k [@lint.allow "R7"])|};
  check "tuple payload allows several rules" []
    {|let f h k = (Hashtbl.find h (Obj.magic k) [@lint.allow ("R2", "R7")])|};
  check "suppression is scoped, not global" [ "R2" ]
    {|let f h k = (Hashtbl.find h k [@lint.allow "R2"])
let g h k = Hashtbl.find h k|}

(* ------------------------------ parsing ----------------------------- *)

let test_parse_errors () =
  check "syntax error is a P0 finding" [ "P0" ] "let f x = ";
  check "lexer error is a P0 finding" [ "P0" ] "let s = \"unterminated"

(* ------------------------------ baseline ---------------------------- *)

let find file rule line =
  Finding.make ~file ~rule ~line ~col:0 ~message:"m" ~hint:""

let test_baseline_roundtrip () =
  let fs =
    [ find "lib/a.ml" "R2" 3; find "lib/a.ml" "R2" 9; find "test/t.ml" "R3" 1 ]
  in
  let b = Baseline.of_findings fs in
  let b' =
    match
      Baseline.of_json (Json.of_string (Json.to_string (Baseline.to_json b)))
    with
    | Ok b' -> b'
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "entry count survives" 2 (List.length b');
  let fresh, stale = Baseline.apply b' fs in
  Alcotest.(check int) "snapshot is clean against itself" 0 (List.length fresh);
  Alcotest.(check int) "no stale budget" 0 (List.length stale)

let test_baseline_fresh_and_stale () =
  let b = Baseline.of_findings [ find "lib/a.ml" "R2" 3 ] in
  (* Same (file, rule) budget tolerates line drift... *)
  let fresh, _ = Baseline.apply b [ find "lib/a.ml" "R2" 7 ] in
  Alcotest.(check int) "line drift does not break the budget" 0
    (List.length fresh);
  (* ...but an extra finding of that (file, rule) is fresh... *)
  let fresh, _ =
    Baseline.apply b [ find "lib/a.ml" "R2" 3; find "lib/a.ml" "R2" 8 ]
  in
  Alcotest.(check int) "budget overflow is fresh" 1 (List.length fresh);
  (* ...and a paid-down file surfaces as stale (ratchet candidate). *)
  let fresh, stale = Baseline.apply b [] in
  Alcotest.(check int) "nothing fresh when paid down" 0 (List.length fresh);
  Alcotest.(check int) "paid-down entry is stale" 1 (List.length stale)

let test_baseline_rejects_malformed () =
  (match Baseline.of_json (Json.Obj [ ("version", Json.int 1) ]) with
  | Ok _ -> Alcotest.fail "accepted a baseline without entries"
  | Error _ -> ());
  match
    Baseline.of_json
      (Json.Obj
         [ ("entries", Json.List [ Json.Obj [ ("file", Json.Str "x") ] ]) ])
  with
  | Ok _ -> Alcotest.fail "accepted a malformed entry"
  | Error _ -> ()

(* ----------------------------- clean tree ---------------------------- *)

(* The repo's own sources (staged into _build by the dune deps of this
   test) must be clean against the checked-in baseline — the same gate CI
   runs via `dune build @lint`. *)
let test_clean_tree () =
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Sys.chdir "..";
      Alcotest.(check bool)
        "repo sources staged" true
        (Sys.file_exists "lib/relational/value.ml");
      let baseline =
        match Baseline.load "lint.baseline" with
        | Ok b -> b
        | Error e -> Alcotest.fail e
      in
      let outcome =
        Driver.run ~baseline [ "lib"; "bin"; "bench"; "test"; "wirebench" ]
      in
      Alcotest.(check int) "no parse errors" 0 outcome.Driver.parse_errors;
      List.iter
        (fun f -> Alcotest.failf "new finding: %a" Finding.pp f)
        outcome.Driver.fresh;
      Alcotest.(check bool) "clean against baseline" true
        (Driver.clean outcome))

(* The acceptance scenario: reintroducing a NULL-equality bug anywhere in
   lib/ must surface as a fresh finding against the checked-in baseline. *)
let test_null_eq_regression_is_fresh () =
  let baseline =
    (* Budgets only exist for test/ R3 debt, so any R1 is fresh. *)
    match Baseline.load "../lint.baseline" with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  let findings =
    Driver.lint_source ~path:"lib/relational/broken.ml"
      "let never_matches (a : Value.t) = a = Value.Null"
  in
  let fresh, _ = Baseline.apply baseline findings in
  Alcotest.(check (list string))
    "Null comparison escapes the baseline" [ "R1" ]
    (List.map (fun (f : Finding.t) -> f.Finding.rule) fresh)

(* ---------------------- R9..R12 (interprocedural) -------------------- *)

(* Findings from [sources] (path * content pairs linted as one program)
   with only [rules] selected, as "rule@line" strings in report order. *)
let program_rules_of rules sources =
  let opts = { Driver.default_options with Driver.rules = Some rules } in
  List.map
    (fun (f : Finding.t) -> Printf.sprintf "%s@%d" f.Finding.rule f.Finding.line)
    (Driver.lint_sources ~opts sources)

let check_program ?(path = "lib/fixture/fixture.ml") name rules expected src =
  Alcotest.(check (list string))
    name expected
    (program_rules_of rules [ (path, src) ])

let guarded_record =
  "type t = { m : Mutex.t; mutable n : int [@lint.guarded_by \"m\"] }\n"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let test_r9_guarded_access () =
  check_program "unguarded write flagged" [ "R9" ] [ "R9@2" ]
    (guarded_record ^ "let reset t = t.n <- 0");
  check_program "reads are accesses too" [ "R9" ] [ "R9@2"; "R9@2" ]
    (guarded_record ^ "let bump t = t.n <- t.n + 1");
  check_program "access under Mutex.protect fine" [ "R9" ] []
    (guarded_record
   ^ "let bump t = Mutex.protect t.m (fun () -> t.n <- t.n + 1)");
  (* The finding names both the field and the declared lock. *)
  let opts =
    { Driver.default_options with Driver.rules = Some [ "R9" ] }
  in
  match
    Driver.lint_source ~opts ~path:"lib/fixture/fixture.ml"
      (guarded_record ^ "let reset t = t.n <- 0")
  with
  | [ f ] ->
      let has s =
        Alcotest.(check bool)
          (Printf.sprintf "message mentions %s" s)
          true
          (contains ~needle:s f.Finding.message)
      in
      has "\"n\"";
      has "\"m\""
  | fs -> Alcotest.failf "expected one R9 finding, got %d" (List.length fs)

let test_r9_reentrancy () =
  check_program "nested Mutex.protect on the same lock" [ "R9" ] [ "R9@3" ]
    (guarded_record
   ^ "let bad t =\n\
     \  Mutex.protect t.m (fun () -> Mutex.protect t.m (fun () -> t.n <- 1))");
  check_program "interprocedural re-acquisition at the call site" [ "R9" ]
    [ "R9@3" ]
    (guarded_record
   ^ "let lock_it t = Mutex.protect t.m (fun () -> t.n <- 1)\n\
      let bad t = Mutex.protect t.m (fun () -> lock_it t)");
  check_program "distinct locks nest fine" [ "R9" ] []
    ("type t = { m : Mutex.t; m2 : Mutex.t }\n"
   ^ "let ok t = Mutex.protect t.m (fun () -> Mutex.protect t.m2 (fun () -> ()))")

let test_r9_exit_holding () =
  (* A bare Mutex.lock with no unlock on some path trips the exit check;
     the access itself is guarded, so (a) stays quiet. *)
  check_program "lock held at exit" [ "R9" ] [ "R9@2" ]
    (guarded_record ^ "let bad t = Mutex.lock t.m; t.n <- 1")

let test_r9_completeness () =
  check_program "mutable sibling of a mutex must declare its guard" [ "R9" ]
    [ "R9@1" ] "type t = { m : Mutex.t; mutable n : int }\nlet mk m = { m; n = 0 }";
  check_program "field-level allow waives completeness" [ "R9" ] []
    "type t = { m : Mutex.t; mutable n : int [@lint.allow \"R9\"] }\n\
     let mk m = { m; n = 0 }";
  check_program "immutable siblings need no guard" [ "R9" ] []
    "type t = { m : Mutex.t; label : string }\nlet mk m = { m; label = \"x\" }"

let test_r9_always_held () =
  (* A private helper (absent from the mli) only ever called under the
     lock inherits it via the always-held meet: no annotation needed. *)
  let ml =
    guarded_record
    ^ "let helper t = t.n <- 1\n\
       let bump t = Mutex.protect t.m (fun () -> helper t)"
  in
  Alcotest.(check (list string))
    "private helper inherits the callers' lock" []
    (program_rules_of [ "R9" ]
       [
         ("lib/fixture/fixture.ml", ml);
         ("lib/fixture/fixture.mli", "type t\nval bump : t -> unit");
       ]);
  (* Public helpers can be entered from anywhere: the same body flags. *)
  Alcotest.(check (list string))
    "public helper must hold the lock itself" [ "R9@2" ]
    (program_rules_of [ "R9" ] [ ("lib/fixture/fixture.ml", ml) ])

let test_r10_blocking_under_lock () =
  check_program "direct blocking call under Mutex.protect" [ "R10" ] [ "R10@2" ]
    (guarded_record ^ "let bad t = Mutex.protect t.m (fun () -> Unix.sleep 1)");
  check_program "blocking reached through a callee" [ "R10" ] [ "R10@3" ]
    (guarded_record
   ^ "let nap () = Unix.sleep 1\n\
      let bad t = Mutex.protect t.m (fun () -> nap ())");
  check_program "spawned closures block on their own thread" [ "R10" ] []
    (guarded_record
   ^ "let ok t =\n\
     \  Mutex.protect t.m (fun () ->\n\
     \      ignore (Thread.create (fun () -> Unix.sleep 1) ()))");
  check_program "Condition.wait on the held mutex is the idiom" [ "R10" ] []
    (guarded_record
   ^ "let wait t c = Mutex.protect t.m (fun () -> Condition.wait c t.m)");
  check_program "Condition.wait on a foreign mutex still flags" [ "R10" ]
    [ "R10@3" ]
    (guarded_record ^ "type u = { m2 : Mutex.t }\n"
   ^ "let bad t u c = Mutex.protect t.m (fun () -> Condition.wait c u.m2)")

let test_r11_sans_io () =
  check_program ~path:"lib/core/fixture.ml" "core reaching the clock" [ "R11" ]
    [ "R11@1" ] "let now () = Unix.gettimeofday ()";
  check_program ~path:"lib/core/fixture.ml" "core spawning a domain" [ "R11" ]
    [ "R11@1" ] "let go f = Domain.spawn f";
  check_program ~path:"lib/server/fixture.ml" "server tier may do IO" [ "R11" ]
    [] "let now () = Unix.gettimeofday ()";
  check_program ~path:"lib/core/fixture.ml" "waiver with a comment" [ "R11" ] []
    "let now () = Unix.gettimeofday () [@@lint.allow \"R11\"]"

let test_r12_decoder_totality () =
  let proto = "lib/server/protocol.ml" in
  check_program ~path:proto "failwith on the decode surface" [ "R12" ]
    [ "R12@1" ]
    "let decode_widget s = if String.equal s \"\" then failwith \"empty\" else s";
  check_program ~path:proto "partial stdlib call on the decode surface"
    [ "R12" ] [ "R12@1" ] "let decode_widget h k = Hashtbl.find h k";
  check_program ~path:proto "handled exception is fine" [ "R12" ] []
    "let decode_widget s = try int_of_string s with Failure _ -> 0";
  check_program ~path:proto "raising helpers propagate to the entry" [ "R12" ]
    [ "R12@2" ]
    "let helper s = failwith s\nlet decode_widget s = helper s";
  check_program ~path:proto "non-entry functions may raise" [ "R12" ] []
    "let encode_widget s = failwith s";
  check_program ~path:"lib/server/listener.ml" "Framing is decode surface"
    [ "R12" ] [ "R12@2" ]
    "module Framing = struct\n  let split s = List.hd s\nend"

let test_rule_selection () =
  let opts_of rules = { Driver.default_options with Driver.rules = Some rules } in
  let rules_only rules src =
    List.map
      (fun (f : Finding.t) -> f.Finding.rule)
      (Driver.lint_source ~opts:(opts_of rules) ~path:"lib/fixture/fixture.ml"
         src)
  in
  Alcotest.(check (list string))
    "--rules filters per-file findings" [ "R2" ]
    (rules_only [ "R2" ]
       "let f h k = Hashtbl.find h k\n\
        let g xs = List.iter (fun x -> ignore (List.length xs + x)) xs");
  Alcotest.(check (list string))
    "parse errors always surface" [ "P0" ]
    (rules_only [ "R9" ] "let f x = ")

(* ------------------------- R13 (unused exports) ---------------------- *)

(* A library unit with an interface: [used] and [unused] are exported,
   and [unused] calls [used] from inside the unit. *)
let store_unit ?(ml = "let used x = x + 1\nlet unused x = used x\n") () =
  [
    ("lib/store/store.mli", "val used : int -> int\nval unused : int -> int\n");
    ("lib/store/store.ml", ml);
  ]

let check_r13 name expected sources =
  Alcotest.(check (list string)) name expected (program_rules_of [ "R13" ] sources)

let test_r13_unused_exports () =
  check_r13 "a use inside its own unit clears nothing" [ "R13@1"; "R13@2" ]
    (store_unit ());
  (match
     Driver.lint_sources
       ~opts:{ Driver.default_options with Driver.rules = Some [ "R13" ] }
       (store_unit ())
   with
  | f :: _ ->
      Alcotest.(check bool)
        "message names the export and its unit" true
        (contains ~needle:"\"used\" has no caller outside lib/store/store.ml"
           f.Finding.message)
  | [] -> Alcotest.fail "expected R13 findings");
  let cleared name caller =
    check_r13 name [ "R13@2" ] (store_unit () @ caller)
  in
  cleared "a call from a sibling unit"
    [ ("lib/store/user.ml", "let f = Store.used 1") ];
  cleared "a library-qualified call from bin/"
    [ ("bin/main.ml", "let f = Jqi_store.Store.used 1") ];
  cleared "a bare reference through a module alias"
    [ ("test/t.ml", "module S = Jqi_store.Store\nlet fs = [ S.used ]") ];
  cleared "a bare reference through a let-module alias"
    [ ("bench/b.ml", "let f () = let module S = Jqi_store.Store in S.used") ];
  cleared "a bare reference through an open"
    [ ("test/t.ml", "open Jqi_store\nopen Store\nlet g = List.map used") ];
  cleared "a local open"
    [ ("test/t.ml", "let g = Jqi_store.Store.(List.map used)") ];
  cleared "an opened unit's own alias"
    [
      ("test/fix.ml", "module S = Jqi_store.Store");
      ("test/t.ml", "open Fix\nlet g = S.used");
    ];
  check_r13 "a module argument uses the whole module" []
    (store_unit () @ [ ("test/t.ml", "module M = F (Jqi_store.Store)") ]);
  check_r13 "[@lint.allow \"R13\"] at the definition" [ "R13@1" ]
    (store_unit
       ~ml:
         "let used x = x + 1\n\
          let[@lint.allow \"R13\"] unused x = used x (* kept as an oracle *)\n"
       ());
  check_r13 "a unit without an .mli is never judged" []
    [ ("lib/store/store.ml", "let used x = x + 1\nlet unused x = used x\n") ]

(* ------------------------- munge regressions ------------------------- *)

let read_staged path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let replace_once ~needle ~by s =
  let nl = String.length needle in
  let rec find i =
    if i + nl > String.length s then
      Alcotest.failf "munge anchor %S not found" needle
    else if String.equal (String.sub s i nl) needle then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + nl) (String.length s - i - nl)

let in_repo_root f =
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Sys.chdir "..";
      f ())

(* Deleting the Mutex.protect wrapper from the Catalog name-table
   accessor must surface as R9 findings naming the field and its lock. *)
let test_r9_catalog_munge () =
  in_repo_root (fun () ->
      let munged =
        replace_once
          ~needle:"let with_names t f = Mutex.protect t.names_mutex f"
          ~by:"let with_names t f = f ()"
          (read_staged "lib/server/catalog.ml")
      in
      let opts =
        { Driver.default_options with Driver.rules = Some [ "R9" ] }
      in
      let findings =
        Driver.lint_sources ~opts [ ("lib/server/catalog.ml", munged) ]
        |> List.filter (fun (f : Finding.t) -> String.equal f.Finding.rule "R9")
      in
      Alcotest.(check bool)
        "dropping the lock wrapper is caught" true
        (List.length findings > 0);
      (* The wrapper guards both name-table fields; each finding must
         name one of them plus the lock. *)
      List.iter
        (fun (f : Finding.t) ->
          Alcotest.(check bool)
            "finding names the unguarded field and its lock" true
            ((contains ~needle:"\"relations\"" f.Finding.message
             || contains ~needle:"\"fps\"" f.Finding.message)
            && contains ~needle:"\"names_mutex\"" f.Finding.message))
        findings)

(* Reintroducing a raising path under Protocol.decode must surface as a
   fresh R12 with a witness chain through the helper. *)
let test_r12_protocol_munge () =
  in_repo_root (fun () ->
      let munged =
        replace_once ~needle:"let label_of_string = function"
          ~by:"let label_of_string = function\n  | \"!\" -> failwith \"boom\""
          (read_staged "lib/server/protocol.ml")
      in
      let opts =
        { Driver.default_options with Driver.rules = Some [ "R12" ] }
      in
      let findings =
        Driver.lint_sources ~opts [ ("lib/server/protocol.ml", munged) ]
        |> List.filter (fun (f : Finding.t) -> String.equal f.Finding.rule "R12")
      in
      Alcotest.(check bool)
        "failwith in a decode helper is caught" true
        (List.length findings > 0);
      Alcotest.(check bool)
        "witness chain passes through label_of_string" true
        (List.exists
           (fun (f : Finding.t) ->
             contains ~needle:"label_of_string" f.Finding.message)
           findings))

(* The analyzer's own sources hold themselves to the same bar.  Its two
   callers come along so that R13 sees the entry points they use. *)
let test_lint_self_clean () =
  in_repo_root (fun () ->
      let _, findings, analysis =
        Driver.lint_paths [ "lib/lint"; "bin/jqlint.ml"; "test/test_lint.ml" ]
      in
      List.iter
        (fun f -> Alcotest.failf "lib/lint finding: %a" Finding.pp f)
        findings;
      match analysis with
      | Some a -> Alcotest.(check bool) "program pass ran" true (a.Driver.units > 0)
      | None -> Alcotest.fail "interprocedural stage did not run")

(* Changed mode restricts reports (and stale budgets) to the given set;
   the parallel driver reports the same findings in the same order. *)
let test_driver_modes () =
  in_repo_root (fun () ->
      let changed =
        {
          Driver.default_options with
          Driver.changed = Some [ "lib/lint/driver.ml" ];
        }
      in
      let outcome = Driver.run ~opts:changed [ "lib/lint" ] in
      Alcotest.(check int) "one file in the changed set" 1 outcome.Driver.files;
      Alcotest.(check (list string))
        "changed mode reports nothing stale" []
        (List.map (fun (e : Baseline.entry) -> e.Baseline.file) outcome.Driver.stale);
      List.iter
        (fun (f : Finding.t) ->
          Alcotest.(check string)
            "findings restricted to the changed file" "lib/lint/driver.ml"
            f.Finding.file)
        outcome.Driver.findings;
      let seq = Driver.lint_paths [ "lib/lint" ] in
      let par =
        Driver.lint_paths
          ~opts:{ Driver.default_options with Driver.jobs = 4 }
          [ "lib/lint" ]
      in
      let show (_, findings, _) =
        List.map
          (fun (f : Finding.t) ->
            Printf.sprintf "%s:%d:%s" f.Finding.file f.Finding.line f.Finding.rule)
          findings
      in
      Alcotest.(check (list string))
        "parallel run is deterministic" (show seq) (show par))

let suite =
  [
    Alcotest.test_case "r1-poly-eq" `Quick test_r1_poly_eq;
    Alcotest.test_case "r1-exemptions" `Quick test_r1_exemptions;
    Alcotest.test_case "r2-partial-calls" `Quick test_r2_partial_calls;
    Alcotest.test_case "r3-loops" `Quick test_r3_loops;
    Alcotest.test_case "r4-nondeterminism" `Quick test_r4_nondeterminism;
    Alcotest.test_case "r5-printing" `Quick test_r5_printing;
    Alcotest.test_case "r6-missing-mli" `Quick test_r6_missing_mli;
    Alcotest.test_case "r7-obj" `Quick test_r7_obj;
    Alcotest.test_case "r8-catch-all" `Quick test_r8_catch_all;
    Alcotest.test_case "suppression" `Quick test_suppression;
    Alcotest.test_case "parse-errors" `Quick test_parse_errors;
    Alcotest.test_case "baseline-roundtrip" `Quick test_baseline_roundtrip;
    Alcotest.test_case "baseline-fresh-stale" `Quick test_baseline_fresh_and_stale;
    Alcotest.test_case "baseline-malformed" `Quick test_baseline_rejects_malformed;
    Alcotest.test_case "r9-guarded-access" `Quick test_r9_guarded_access;
    Alcotest.test_case "r9-reentrancy" `Quick test_r9_reentrancy;
    Alcotest.test_case "r9-exit-holding" `Quick test_r9_exit_holding;
    Alcotest.test_case "r9-completeness" `Quick test_r9_completeness;
    Alcotest.test_case "r9-always-held" `Quick test_r9_always_held;
    Alcotest.test_case "r10-blocking-under-lock" `Quick test_r10_blocking_under_lock;
    Alcotest.test_case "r11-sans-io" `Quick test_r11_sans_io;
    Alcotest.test_case "r12-decoder-totality" `Quick test_r12_decoder_totality;
    Alcotest.test_case "rule-selection" `Quick test_rule_selection;
    Alcotest.test_case "r9-catalog-munge" `Quick test_r9_catalog_munge;
    Alcotest.test_case "r12-protocol-munge" `Quick test_r12_protocol_munge;
    Alcotest.test_case "lint-self-clean" `Quick test_lint_self_clean;
    Alcotest.test_case "driver-modes" `Quick test_driver_modes;
    Alcotest.test_case "clean-tree" `Quick test_clean_tree;
    Alcotest.test_case "null-eq-regression" `Quick test_null_eq_regression_is_fresh;
    Alcotest.test_case "r13-unused-exports" `Quick test_r13_unused_exports;
  ]
