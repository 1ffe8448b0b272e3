(* The lint pipeline: discover -> parse -> rules -> suppress -> baseline.

   The driver is pure plumbing; policy lives in Rules (what is flagged),
   Concurrency (the interprocedural R9..R12), Exports (R13), Suppress
   (what the code itself waives) and Baseline (what history tolerates).

   Two stages:
   - the per-file stage parses sequentially (compiler-libs' lexer keeps
     global buffers) and fans the pure rule walks (R1..R8 + suppression)
     out over [jobs] domains, results keyed by index so the report order
     is deterministic regardless of scheduling;
   - the program stage builds the Typed_source/Callgraph/Effects view of
     the whole tree sequentially (it is a fixpoint over shared tables)
     and runs R9..R13, then applies each file's suppression scopes to
     the findings that landed in it. *)

type options = {
  rules : string list option;  (* None = every rule *)
  changed : string list option;  (* only report findings in these files *)
  jobs : int;
}

let default_options = { rules = None; changed = None; jobs = 1 }

type analysis = { units : int; defs : int; wrappers : int; rounds : int }

type outcome = {
  files : int;
  findings : Finding.t list;  (* post-suppression, sorted; includes P0/R6 *)
  fresh : Finding.t list;  (* findings in excess of the baseline *)
  stale : Baseline.entry list;
  parse_errors : int;
  wall_ms : float;
  analysis : analysis option;  (* present when R9..R13 ran *)
}

let program_rules = [ "R9"; "R10"; "R11"; "R12"; "R13" ]

let selected opts (rule : string) =
  String.equal rule "P0"
  ||
  match opts.rules with
  | None -> true
  | Some ids -> List.exists (String.equal rule) ids

let need_program opts = List.exists (selected opts) program_rules

let select_findings opts findings =
  match opts.rules with
  | None -> findings
  | Some _ ->
      List.filter (fun f -> selected opts f.Finding.rule) findings

(* ------------------------------------------------------------------ *)
(* Parallel fan-out                                                    *)
(* ------------------------------------------------------------------ *)

(* Work-stealing over an atomic index; each result lands in its input
   slot, so the output order is independent of domain scheduling. *)
let parallel_map ~jobs f xs =
  let n = List.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs = 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          out.(i) <- Some (f inputs.(i));
          go ()
        end
      in
      go ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    Array.to_list out |> List.filter_map Fun.id
  end

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

type parsed = {
  p_path : string;
  p_file : Source.file option;  (* None on parse error *)
  p_scopes : Suppress.scope list;
  p_findings : Finding.t list;  (* per-file rules, suppressed *)
}

(* Parsing stays on one domain: compiler-libs' lexer keeps global
   buffers, so concurrent [Source.parse] calls corrupt each other.
   Everything downstream of the parse — the rule walks and suppression
   scoping — is pure AST traversal and fans out safely. *)
let process opts (path, parse_result) =
  match parse_result with
  | Ok f ->
      let scopes = Suppress.of_file f in
      let findings =
        Suppress.filter scopes (Rules.check_file f) |> select_findings opts
      in
      { p_path = path; p_file = Some f; p_scopes = scopes; p_findings = findings }
  | Error p0 -> { p_path = path; p_file = None; p_scopes = []; p_findings = [ p0 ] }

(* R9..R13 over already-parsed files; suppression scopes are applied
   per file to the findings that landed in it. *)
let program_stage parsed =
  let files = List.filter_map (fun p -> p.p_file) parsed in
  let prog = Typed_source.load files in
  let cg = Callgraph.build prog in
  let eff = Effects.build cg ~sanctioned:Concurrency.sanctioned in
  let raw = Concurrency.check prog cg eff @ Exports.check prog files in
  let scopes_of =
    let tbl = Hashtbl.create 64 in
    List.iter (fun p -> Hashtbl.replace tbl p.p_path p.p_scopes) parsed;
    fun path ->
      match Hashtbl.find_opt tbl path with Some s -> s | None -> []
  in
  let findings =
    List.concat_map
      (fun (f : Finding.t) -> Suppress.filter (scopes_of f.Finding.file) [ f ])
      raw
  in
  let analysis =
    {
      units = Hashtbl.length prog.Typed_source.units;
      defs = Hashtbl.length prog.Typed_source.defs;
      wrappers = Hashtbl.length cg.Callgraph.wrappers;
      rounds = cg.Callgraph.rounds;
    }
  in
  (findings, analysis)

(* ------------------------------------------------------------------ *)
(* In-memory entry points (fixtures, tests)                            *)
(* ------------------------------------------------------------------ *)

(* Lint in-memory sources as one little program: per-file rules plus the
   interprocedural pass, suppression applied, no R6/baseline. *)
let lint_sources ?(opts = default_options) sources =
  let parsed =
    List.map
      (fun (path, content) ->
        match Source.parse_string ~path content with
        | Ok f ->
            let scopes = Suppress.of_file f in
            let findings =
              Suppress.filter scopes (Rules.check_file f)
              |> select_findings opts
            in
            {
              p_path = path;
              p_file = Some f;
              p_scopes = scopes;
              p_findings = findings;
            }
        | Error p0 ->
            { p_path = path; p_file = None; p_scopes = []; p_findings = [ p0 ] })
      sources
  in
  let per_file = List.concat_map (fun p -> p.p_findings) parsed in
  let program =
    if need_program opts then fst (program_stage parsed) |> select_findings opts
    else []
  in
  List.sort Finding.compare (List.rev_append program per_file)

let lint_source ?opts ~path source = lint_sources ?opts [ (path, source) ]

(* ------------------------------------------------------------------ *)
(* On-disk pipeline                                                    *)
(* ------------------------------------------------------------------ *)

let in_changed opts path =
  match opts.changed with
  | None -> true
  | Some set -> List.exists (String.equal (Rules.normalize path)) set

let lint_paths ?(opts = default_options) paths =
  let all = Source.discover paths in
  (* In changed mode the per-file stage covers only the changed files;
     the whole tree is still parsed when an interprocedural rule is
     selected, because R9..R13 need the whole program either way. *)
  let per_file_targets = List.filter (in_changed opts) all in
  let rest = List.filter (fun p -> not (in_changed opts p)) all in
  let parsed_targets =
    per_file_targets
    |> List.map (fun p -> (p, Source.parse p))
    |> parallel_map ~jobs:opts.jobs (process opts)
  in
  let parsed_rest =
    if need_program opts then
      rest
      |> List.map (fun p -> (p, Source.parse p))
      |> parallel_map ~jobs:opts.jobs (fun (path, parse_result) ->
             match parse_result with
             | Ok f ->
                 {
                   p_path = path;
                   p_file = Some f;
                   p_scopes = Suppress.of_file f;
                   p_findings = [];
                 }
             | Error _ ->
                 (* Already reported when the file is in the changed set;
                    otherwise out of scope for this run. *)
                 { p_path = path; p_file = None; p_scopes = []; p_findings = [] })
    else []
  in
  let per_file = List.concat_map (fun p -> p.p_findings) parsed_targets in
  let program, analysis =
    if need_program opts then begin
      let findings, analysis =
        program_stage (List.rev_append parsed_rest parsed_targets)
      in
      let findings =
        findings |> select_findings opts
        |> List.filter (fun f -> in_changed opts f.Finding.file)
      in
      (findings, Some analysis)
    end
    else ([], None)
  in
  let mli =
    (* R6 is a tree-level property: meaningless over a changed subset. *)
    if opts.changed = None && selected opts "R6" then
      Rules.check_missing_mli all
    else []
  in
  let findings =
    List.sort Finding.compare
      (List.rev_append mli (List.rev_append program per_file))
  in
  (List.length per_file_targets, findings, analysis)

let run ?(baseline = Baseline.empty) ?(opts = default_options) paths =
  let t0 = Jqi_util.Timer.now () in
  let files, findings, analysis = lint_paths ~opts paths in
  let fresh, stale = Baseline.apply baseline findings in
  (* A partial run cannot tell an unused budget from an unvisited file. *)
  let stale = if opts.changed = None then stale else [] in
  let parse_errors =
    List.length
      (List.filter (fun f -> String.equal f.Finding.rule "P0") findings)
  in
  let wall_ms = (Jqi_util.Timer.now () -. t0) *. 1000. in
  { files; findings; fresh; stale; parse_errors; wall_ms; analysis }

(* CI contract: fail on anything the baseline does not cover. *)
let clean outcome = List.is_empty outcome.fresh

let analysis_to_json a =
  let module Json = Jqi_util.Json in
  Json.Obj
    [
      ("units", Json.int a.units);
      ("functions", Json.int a.defs);
      ("lock_wrappers", Json.int a.wrappers);
      ("fixpoint_rounds", Json.int a.rounds);
    ]
