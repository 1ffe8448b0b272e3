(* jqlint — the project linter.

   Usage:
     jqlint [options] PATH...

   Parses every .ml/.mli under the given paths with the project compiler
   (compiler-libs) and enforces the R1..R13 rule catalog of
   doc/LINTING.md: the per-file rules R1..R8 plus the interprocedural
   concurrency/effect rules R9..R12 (lock discipline, no blocking under
   a lock, sans-IO purity, decoder totality) and R13 (unused exports).

   Exit codes (documented in doc/LINTING.md):
     0  no findings beyond the baseline
     1  fresh findings or parse errors
     2  bad usage (unknown flag/rule/format, unreadable baseline,
        git failure in --changed mode)

   Run it from the repository root so paths match the checked-in
   baseline: jqlint --baseline lint.baseline lib bin bench test wirebench *)

module Lint = Jqi_lint.Driver
module Baseline = Jqi_lint.Baseline
module Report = Jqi_lint.Report
module Rules = Jqi_lint.Rules

type format = Human | Json | Github

let usage =
  "jqlint [--format human|json|github] [--baseline FILE] [--update-baseline] \
   [--out FILE] [--rules IDS] [--changed[=REF]] [--jobs N] [--list-rules] \
   PATH..."

(* Files differing from [ref_] (committed or not), plus untracked ones —
   the pre-commit working set.  Paths come back repo-root-relative, which
   matches how the baseline and the lint targets are spelled. *)
let git_changed ref_ =
  let lines cmd =
    let ic = Unix.open_process_in cmd in
    let buf = ref [] in
    (try
       while true do
         buf := input_line ic :: !buf
       done
     with End_of_file -> ());
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> Ok (List.rev !buf)
    | Unix.WEXITED n -> Error (Printf.sprintf "%s exited %d" cmd n)
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
        Error (Printf.sprintf "%s killed" cmd)
  in
  match
    ( lines (Printf.sprintf "git diff --name-only %s --" (Filename.quote ref_)),
      lines "git ls-files --others --exclude-standard" )
  with
  | Ok a, Ok b -> Ok (List.sort_uniq String.compare (a @ b))
  | Error e, _ | _, Error e -> Error e

let parse_rules s =
  let ids = String.split_on_char ',' s |> List.map String.trim in
  List.iter
    (fun id ->
      if Rules.find_rule id = None then begin
        prerr_endline ("jqlint: unknown rule " ^ id ^ " (see --list-rules)");
        exit 2
      end)
    ids;
  ids

(* Arg cannot express an optional =VALUE, so --changed[=REF] is expanded
   to two tokens before parsing. *)
let preprocess argv =
  Array.to_list argv
  |> List.concat_map (fun a ->
         if String.equal a "--changed" then [ "--changed-ref"; "HEAD" ]
         else if String.starts_with ~prefix:"--changed=" a then
           [
             "--changed-ref";
             String.sub a 10 (String.length a - 10);
           ]
         else [ a ])
  |> Array.of_list

let () =
  let format = ref Human in
  let baseline_path = ref None in
  let update = ref false in
  let out_json = ref None in
  let list_rules = ref false in
  let rules = ref None in
  let changed_ref = ref None in
  let jobs = ref 1 in
  let paths = ref [] in
  let set_format = function
    | "human" -> format := Human
    | "json" -> format := Json
    | "github" -> format := Github
    | f ->
        prerr_endline ("jqlint: unknown format " ^ f);
        exit 2
  in
  let spec =
    [
      ("--format", Arg.String set_format, "FMT  output format: human (default), json, github");
      ("--baseline", Arg.String (fun s -> baseline_path := Some s), "FILE  tolerate findings pinned in FILE");
      ("--update-baseline", Arg.Set update, "  rewrite the baseline from the current findings and exit 0");
      ("--out", Arg.String (fun s -> out_json := Some s), "FILE  also write the full JSON report to FILE");
      ("--rules", Arg.String (fun s -> rules := Some (parse_rules s)), "IDS  only run these rules (comma-separated, e.g. R9,R10)");
      ("--changed-ref", Arg.String (fun s -> changed_ref := Some s), "REF  spelled --changed[=REF]: only report findings in files differing from REF (default HEAD)");
      ("--jobs", Arg.Int (fun n -> jobs := max 1 n), "N  parse/lint files across N domains (default 1)");
      ("--list-rules", Arg.Set list_rules, "  print the rule catalog and exit");
    ]
  in
  (try
     Arg.parse_argv (preprocess Sys.argv) spec
       (fun p -> paths := p :: !paths)
       usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 2
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !list_rules then begin
    List.iter
      (fun (r : Rules.rule) ->
        Printf.printf "%s  %s\n      fix: %s\n" r.id r.title r.hint)
      Rules.catalog;
    exit 0
  end;
  let paths = List.rev !paths in
  if paths = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let changed =
    match !changed_ref with
    | None -> None
    | Some ref_ -> (
        match git_changed ref_ with
        | Ok files -> Some (List.map Rules.normalize files)
        | Error msg ->
            prerr_endline ("jqlint: --changed: " ^ msg);
            exit 2)
  in
  let baseline =
    match !baseline_path with
    | None -> Baseline.empty
    | Some p when !update && not (Sys.file_exists p) -> Baseline.empty
    | Some p -> (
        match Baseline.load p with
        | Ok b -> b
        | Error msg ->
            prerr_endline ("jqlint: " ^ msg);
            exit 2)
  in
  let opts = { Lint.rules = !rules; changed; jobs = !jobs } in
  let outcome = Lint.run ~baseline ~opts paths in
  if !update then begin
    match !baseline_path with
    | None ->
        prerr_endline "jqlint: --update-baseline needs --baseline FILE";
        exit 2
    | Some p ->
        Baseline.save p (Baseline.of_findings outcome.findings);
        Printf.printf "jqlint: baseline %s updated (%d findings pinned)\n" p
          (List.length outcome.findings);
        exit 0
  end;
  let render_json () =
    Report.json ~wall_ms:outcome.wall_ms
      ?analysis:(Option.map Lint.analysis_to_json outcome.analysis)
      ~files:outcome.files ~findings:outcome.findings ~fresh:outcome.fresh
      ~stale:outcome.stale ()
  in
  (match !out_json with
  | None -> ()
  | Some p ->
      let oc = open_out p in
      output_string oc (render_json ());
      close_out oc);
  (match !format with
  | Human ->
      print_string
        (Report.human ~files:outcome.files
           ~total:(List.length outcome.findings)
           ~fresh:outcome.fresh ~stale:outcome.stale)
  | Json -> print_string (render_json ())
  | Github ->
      print_string (Report.github outcome.fresh);
      Printf.printf "jqlint: %d files, %d findings, %d new\n" outcome.files
        (List.length outcome.findings)
        (List.length outcome.fresh));
  exit (if Lint.clean outcome then 0 else 1)
