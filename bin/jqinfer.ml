(* jqinfer — command-line front end of the join-inference library.

   Subcommands:
     infer          interactively infer an equijoin over two or more CSV files
                    (the human is the oracle; labels read from stdin)
     simulate       replay the inference with a known goal predicate
     gen-tpch       generate TPC-H-style CSV files
     gen-synth      generate a synthetic instance (§5.2 configuration)
     semijoin-cons  decide CONS⋉ for a labeled sample over two CSV files
     lattice        export the Figure-4-style predicate lattice as Graphviz
     serve          speak the JSON-lines inference protocol on stdin/stdout
     client         drive a served session to completion (CI smoke tests) *)

module Value = Jqi_relational.Value
module Engine = Jqi_core.Engine
module Relation = Jqi_relational.Relation
module Tuple = Jqi_relational.Tuple
module Csv = Jqi_relational.Csv
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe
module State = Jqi_core.State
module Sample = Jqi_core.Sample
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Lattice = Jqi_core.Lattice
module Prng = Jqi_util.Prng
module Obs = Jqi_obs.Obs
module Relstore = Jqi_storage.Relstore

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  if verbose then Logs.Src.set_level Inference.log_src (Some Logs.Debug)

(* --trace/--metrics observability plumbing: enable instrumentation before
   the run when either is requested, emit the artifacts afterwards. *)
let obs_setup ~trace ~metrics =
  if trace <> None || metrics then begin
    Obs.reset ();
    Obs.set_enabled true
  end

let obs_finish ~trace ~metrics =
  (match trace with
  | Some path ->
      Obs.save_trace path;
      Printf.printf "Trace written to %s (open in chrome://tracing or Perfetto).\n" path
  | None -> ());
  if metrics then begin
    print_newline ();
    print_string (Obs.Report.render (Obs.Report.snapshot ()))
  end

(* A relation is named after its CSV file unless a spec names it. *)
let table_of_path path =
  (Filename.remove_extension (Filename.basename path), path)

(* "name=path" or bare "path" (named after the file). *)
let parse_table_spec spec =
  match String.index_opt spec '=' with
  | Some k ->
      ( String.sub spec 0 k,
        String.sub spec (k + 1) (String.length spec - k - 1) )
  | None -> table_of_path spec

(* --backend mem|paged: [Mem] materializes rows in arrays; [Paged]
   streams the CSV into a heap-file store and scans it through a
   --buffer-pages-frame buffer pool (temp files, removed on exit). *)
let load_table ?(backend = Relstore.Mem) (name, path) =
  Relstore.load_csv_relation ~backend ~name path

let load_rel ?backend path = load_table ?backend (table_of_path path)

let load_pair ?backend r_path p_path =
  (load_rel ?backend r_path, load_rel ?backend p_path)

(* The instance's tables as (name, path): the two R.csv P.csv
   positionals, or "--relations a.csv,b=b.csv,c.csv" for k >= 2
   relations, each item a [parse_table_spec] spec. *)
let instance_tables ~cmd r_path p_path relations =
  match (relations, r_path, p_path) with
  | Some spec, None, None ->
      let specs =
        List.filter
          (fun s -> not (String.equal s ""))
          (List.map String.trim (String.split_on_char ',' spec))
      in
      if List.compare_length_with specs 2 < 0 then begin
        Printf.eprintf "--relations needs at least two CSV paths, got %S\n" spec;
        exit 2
      end;
      List.map parse_table_spec specs
  | Some _, Some _, _ | Some _, _, Some _ ->
      Printf.eprintf
        "%s takes either R.csv P.csv positionals or --relations, not both\n" cmd;
      exit 2
  | None, Some r, Some p -> [ table_of_path r; table_of_path p ]
  | None, None, _ | None, _, None ->
      Printf.eprintf "%s needs R.csv P.csv positionals or --relations\n" cmd;
      exit 2

(* Universe builder selection (--universe): [Universe.build] is the
   default; naive is the Cartesian reference scan kept for differentials;
   sampled:<n> draws that many uniform random tuples instead of scanning
   the product. *)
let builder_name = function
  | `Naive -> "naive"
  | `Quotient -> "quotient"
  | `Sampled tuples -> Printf.sprintf "sampled:%d" tuples

let build_universe ~seed ubuilder rels =
  match ubuilder with
  | `Naive -> Universe.build_kary_naive rels
  | `Quotient -> Universe.build rels
  | `Sampled tuples -> Universe.build_sampled (Prng.create seed) ~tuples rels

let strategy_or_exit ~seed name =
  match Strategy.of_name ~seed name with
  | Some strategy -> strategy
  | None ->
      Printf.eprintf "unknown strategy %S (bu|td|l1s|l2s|rnd|igs|hybrid)\n" name;
      exit 2

(* "A1=B2,A3=B1" -> name pairs *)
let parse_goal spec =
  List.map
    (fun part ->
      match String.split_on_char '=' (String.trim part) with
      | [ a; b ] -> (String.trim a, String.trim b)
      | _ ->
          Printf.eprintf "bad goal component %S (expected lhs=rhs)\n" part;
          exit 2)
    (if spec = "" then [] else String.split_on_char ',' spec)

(* A bare "a=b" over two relations means left = right ([Omega.of_names]),
   so a self-join may name one attribute on both sides.  Anything that
   reading rejects (k >= 3, "rel.attr" names, a reversed pair) resolves
   through [Omega.of_names_kary]; a goal neither reading accepts is a
   usage error. *)
let goal_of omega pairs =
  match Omega.of_names omega pairs with
  | goal -> goal
  | exception Invalid_argument _ -> (
      match Omega.of_names_kary omega pairs with
      | goal -> goal
      | exception Invalid_argument msg ->
          Printf.eprintf "bad --goal: %s\n" msg;
          exit 2)

(* ----------------------------- infer ------------------------------ *)

(* Render an inferred predicate as an executable SQL statement. *)
let sql_of_predicate r p omega theta =
  let pairs =
    List.map
      (fun (i, j) ->
        ( Jqi_relational.Schema.name_at (Relation.schema r) i,
          Jqi_relational.Schema.name_at (Relation.schema p) j ))
      (Omega.to_pairs omega theta)
  in
  Jqi_sql.Ast.to_string
    (Jqi_sql.Ast.of_equijoin ~r:(Relation.name r) ~p:(Relation.name p) pairs)

(* Lenient label reading: y/n/+/-/yes/no in any case; anything else
   re-prompts; EOF returns [None] so the caller can freeze the session
   instead of dropping the user's answers on the floor. *)
let read_label () =
  let rec prompt () =
    Printf.printf "  [y]es / [n]o > %!";
    match input_line stdin |> String.trim |> String.lowercase_ascii with
    | "y" | "yes" | "+" -> Some Sample.Positive
    | "n" | "no" | "-" -> Some Sample.Negative
    | other ->
        Printf.printf "  (%S is not an answer — y, n, yes, no, + or -)\n" other;
        prompt ()
    | exception End_of_file -> None
  in
  prompt ()

let print_question rels (q : Engine.question) =
  match q.Engine.rows with
  | Some tuples ->
      Printf.printf "\nWould you combine these rows?\n";
      Array.iteri
        (fun i t ->
          Printf.printf "  %s: %s\n" (Relation.name rels.(i)) (Tuple.to_string t))
        tuples
  | None -> ()

(* Freeze a live engine as a session document (v2 for two relations, v3
   for more): labels so far, the strategy, and the in-flight question if
   one is outstanding. *)
let save_session path universe strategy engine =
  let pending =
    match Engine.pending engine with
    | Some q -> Some (Universe.cls universe q.Engine.class_id).Universe.rep
    | None -> None
  in
  Jqi_core.Session.save ~strategy:(Strategy.name strategy) ?pending path
    universe (Engine.result engine).Engine.state

(* How many tuples of the instance the predicate selects. *)
let selected_tuples universe predicate =
  List.fold_left
    (fun n c -> n + Universe.count universe c)
    0
    (Universe.selected_classes universe predicate)

let load_instance ~seed ubuilder backend tables =
  let rels = List.map (load_table ~backend) tables in
  (rels, build_universe ~seed ubuilder rels)

let cmd_infer r_path p_path relations strategy_name seed verbose ubuilder
    backend resume save trace metrics =
  let tables = instance_tables ~cmd:"infer" r_path p_path relations in
  setup_logs verbose;
  obs_setup ~trace ~metrics;
  let rels, universe = load_instance ~seed ubuilder backend tables in
  let omega = Universe.omega universe in
  let rel_arr = Array.of_list rels in
  Printf.printf
    "Loaded %s; %d tuple classes over |Ω| = %d (%s universe builder).\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "%s (%d rows)" (Relation.name r)
              (Relation.cardinality r))
          rels))
    (Universe.n_classes universe) (Omega.width omega)
    (builder_name ubuilder);
  let strategy = strategy_or_exit ~seed strategy_name in
  let engine =
    match resume with
    | None -> Engine.create universe strategy
    | Some path -> (
        let module Session = Jqi_core.Session in
        (* A document the instance cannot thaw is a usage error, like a
           bad --goal; the pending question resolves by its signature
           when the document carries one, as the server's resume does. *)
        let bad msg =
          Printf.eprintf "bad --resume: %s\n" msg;
          exit 2
        in
        match
          let loaded = Session.load_full path universe in
          ( loaded,
            Session.pending_class ?signature:loaded.Session.pending_sig
              universe loaded.Session.state loaded.Session.pending )
        with
        | exception Session.Corrupt msg -> bad msg
        | exception Session.Stale_label { signature; label } ->
            bad
              (Printf.sprintf "%s signature %s names no class of this instance"
                 (match label with
                 | Some _ -> "an example's"
                 | None -> "the pending question's")
                 (Jqi_util.Bits.to_string signature))
        | loaded, pending ->
            Printf.printf "Resumed %d earlier answers from %s%s.\n"
              (State.n_interactions loaded.Session.state)
              path
              (match loaded.Session.strategy with
              | Some s -> Printf.sprintf " (saved under strategy %s)" s
              | None -> "");
            Engine.create ~state:loaded.Session.state ?pending universe strategy)
  in
  (* The interactive loop over the sans-IO engine.  [None] means stdin
     closed mid-session: autosave (to --save or a temp file) and print the
     exact command that resumes it. *)
  let rec drive engine =
    match Engine.pending engine with
    | None -> Some engine
    | Some q -> (
        print_question rel_arr q;
        match read_label () with
        | Some label -> drive (Engine.answer engine label)
        | None ->
            let path =
              match save with
              | Some path -> path
              | None -> Filename.temp_file "jqinfer" "-session.json"
            in
            save_session path universe strategy engine;
            Printf.printf
              "\nInput closed — session autosaved to %s.\nResume with:\n  \
               jqinfer infer %s --strategy %s --resume %s\n"
              path
              (match relations with
              | Some spec -> "--relations " ^ spec
              | None -> String.concat " " (List.map snd tables))
              strategy_name path;
            None)
  in
  match drive engine with
  | None -> obs_finish ~trace ~metrics
  | Some engine ->
      let result = Engine.result engine in
      (match save with
      | Some path ->
          save_session path universe strategy engine;
          Printf.printf "Session saved to %s.\n" path
      | None -> ());
      if result.Engine.halted then begin
        let cert = Jqi_core.Certificate.of_state result.Engine.state in
        Printf.printf
          "Minimal evidence: %d of your %d answers pinned the query down.\n"
          (Jqi_core.Certificate.size cert)
          result.Engine.n_interactions
      end;
      Printf.printf "\nInferred join predicate after %d answers:\n  %s\n"
        result.Engine.n_interactions
        (Omega.pred_to_string omega result.Engine.predicate);
      (match rels with
      | [ r; p ] ->
          Printf.printf "As SQL:\n  %s\n"
            (sql_of_predicate r p omega result.Engine.predicate)
      | _ -> ());
      Printf.printf "It selects %d of the %d tuple combinations.\n"
        (selected_tuples universe result.Engine.predicate)
        (Universe.total_tuples universe);
      obs_finish ~trace ~metrics

(* ---------------------------- simulate ---------------------------- *)

let cmd_simulate r_path p_path relations goal_spec seed verbose ubuilder
    backend trace metrics =
  let tables = instance_tables ~cmd:"simulate" r_path p_path relations in
  setup_logs verbose;
  obs_setup ~trace ~metrics;
  let rels, universe = load_instance ~seed ubuilder backend tables in
  let omega = Universe.omega universe in
  let goal = goal_of omega (parse_goal goal_spec) in
  Printf.printf
    "Instance: %d relations, |D| = %d, %d classes, join ratio %.3f (%s \
     universe builder); goal %s\n"
    (List.length rels)
    (Universe.total_tuples universe)
    (Universe.n_classes universe)
    (Universe.join_ratio universe)
    (builder_name ubuilder)
    (Omega.pred_to_string omega goal);
  List.iter
    (fun name ->
      let strategy = strategy_or_exit ~seed name in
      let result = Inference.run universe strategy (Oracle.honest ~goal) in
      Printf.printf "  %-4s %4d interactions  %8.4fs  inferred %s%s\n"
        result.strategy result.n_interactions result.elapsed
        (Omega.pred_to_string omega result.predicate)
        (if Inference.verified universe ~goal result then ""
         else "  [NOT instance-equivalent]"))
    [ "bu"; "td"; "l1s"; "l2s"; "rnd"; "igs"; "hybrid" ];
  (match rels with
  | [ r; p ] ->
      let td_result = Inference.run universe Strategy.td (Oracle.honest ~goal) in
      Printf.printf "inferred query as SQL:\n  %s\n"
        (sql_of_predicate r p omega td_result.predicate)
  | _ -> ());
  obs_finish ~trace ~metrics

(* ---------------------------- gen-tpch ---------------------------- *)

let cmd_gen_tpch scale seed out_dir =
  let db = Jqi_tpch.Tpch.generate ~seed ~scale () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter
    (fun rel ->
      let path = Filename.concat out_dir (Relation.name rel ^ ".csv") in
      Csv.save_relation path rel;
      Printf.printf "wrote %s (%d rows)\n" path (Relation.cardinality rel))
    [ db.part; db.supplier; db.partsupp; db.customer; db.orders; db.lineitem ]

(* ---------------------------- gen-synth --------------------------- *)

let cmd_gen_synth config_spec seed out_dir =
  let config =
    match
      List.map int_of_string_opt (String.split_on_char ',' config_spec)
    with
    | [ Some n; Some m; Some l; Some v ] -> Jqi_synth.Synth.config n m l v
    | _ ->
        Printf.eprintf "bad --config %S (expected n,m,l,v)\n" config_spec;
        exit 2
  in
  let prng = Prng.create seed in
  let r, p = Jqi_synth.Synth.generate prng config in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  List.iter
    (fun rel ->
      let path = Filename.concat out_dir (Relation.name rel ^ ".csv") in
      Csv.save_relation path rel;
      Printf.printf "wrote %s (%d rows)\n" path (Relation.cardinality rel))
    [ r; p ]

(* -------------------------- semijoin-cons ------------------------- *)

let parse_indices spec =
  if String.trim spec = "" then []
  else
    List.map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some i -> i
        | None ->
            Printf.eprintf "bad row index %S\n" s;
            exit 2)
      (String.split_on_char ',' spec)

let cmd_semijoin_cons r_path p_path pos_spec neg_spec =
  let r, p = load_pair r_path p_path in
  let omega = Omega.of_schemas (Relation.schema r) (Relation.schema p) in
  let sample =
    Jqi_semijoin.Semijoin.sample ~pos:(parse_indices pos_spec)
      ~neg:(parse_indices neg_spec)
  in
  match Jqi_semijoin.Cons.solve r p omega sample with
  | Some theta ->
      Printf.printf "CONSISTENT — witness semijoin predicate:\n  %s\n"
        (Omega.pred_to_string omega theta);
      Printf.printf "R ⋉_θ P selects %d of %d rows of %s\n"
        (Relation.cardinality (Jqi_semijoin.Semijoin.eval r p omega theta))
        (Relation.cardinality r) (Relation.name r)
  | None ->
      print_endline
        "INCONSISTENT — no semijoin predicate selects all positives and no negative."

(* ----------------------------- lattice ---------------------------- *)

let cmd_lattice r_path p_path out =
  let r, p = load_pair r_path p_path in
  let universe = Universe.build [ r; p ] in
  let omega = Universe.omega universe in
  let dot = Lattice.to_dot omega universe in
  (match out with
  | None -> print_string dot
  | Some path ->
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Printf.printf "wrote %s\n" path);
  Printf.printf "%% %d signature classes, %d non-nullable predicates\n"
    (Universe.n_classes universe)
    (Lattice.non_nullable_count (Universe.signatures universe))

(* --------------------------- semijoin-infer ------------------------ *)

(* Interactive semijoin inference (the §7 heuristic): the user labels rows
   of R as kept / filtered out; certain rows are skipped via the SAT-backed
   consistency oracle. *)
let cmd_semijoin_infer r_path p_path max_queries =
  let r, p = load_pair r_path p_path in
  let omega = Omega.of_schemas (Relation.schema r) (Relation.schema p) in
  Printf.printf
    "Semijoin inference over %s (%d rows) against %s (%d rows).\n\
     Answer whether each row of %s should be KEPT (it has a matching row \
     in %s under the filter you have in mind).\n"
    (Relation.name r) (Relation.cardinality r) (Relation.name p)
    (Relation.cardinality p) (Relation.name r) (Relation.name p);
  let oracle i =
    Printf.printf "\nKeep this row of %s?\n  %s\n" (Relation.name r)
      (Tuple.to_string (Relation.row r i));
    let rec ask () =
      Printf.printf "  [y]es / [n]o > %!";
      match input_line stdin |> String.lowercase_ascii |> String.trim with
      | "y" | "yes" | "+" -> true
      | "n" | "no" | "-" -> false
      | _ -> ask ()
    in
    ask ()
  in
  let result =
    match max_queries with
    | Some m -> Jqi_semijoin.Heuristic.run ~max_queries:m r p omega ~oracle
    | None -> Jqi_semijoin.Heuristic.run r p omega ~oracle
  in
  Printf.printf
    "\nInferred semijoin predicate after %d questions (%d rows implied):\n  %s\n"
    result.n_queries
    (List.length result.implied)
    (Omega.pred_to_string omega result.predicate);
  Printf.printf "It keeps %d of %d rows.\n"
    (Relation.cardinality (Jqi_semijoin.Semijoin.eval r p omega result.predicate))
    (Relation.cardinality r)

(* ----------------------------- figure ----------------------------- *)

(* Print the instance the way the paper's Figures 3 and 5 do: every tuple
   of the Cartesian product with its most specific predicate T and its
   entropy (u⁺, u⁻) under the empty sample.  Guarded to small products —
   the table has one row per tuple. *)
let cmd_figure r_path p_path =
  let r, p = load_pair r_path p_path in
  let universe = Universe.build [ r; p ] in
  let omega = Universe.omega universe in
  if Universe.total_tuples universe > 500 then begin
    Printf.eprintf
      "error: %d tuples is too many to tabulate (limit 500); use 'analyze'\n"
      (Universe.total_tuples universe);
    exit 1
  end;
  let st = State.create universe in
  let rows = ref [] in
  for i = Relation.cardinality r - 1 downto 0 do
    for j = Relation.cardinality p - 1 downto 0 do
      let s =
        Jqi_core.Tsig.of_tuples omega (Relation.row r i) (Relation.row p j)
      in
      let cls = Option.get (Universe.find_class universe s) in
      let entropy = Jqi_core.Entropy.entropy1 st cls in
      rows :=
        [
          Printf.sprintf "(%d,%d)" i j;
          Tuple.to_string (Relation.row r i);
          Tuple.to_string (Relation.row p j);
          Omega.pred_to_string omega s;
          Fmt.str "%a" Jqi_core.Entropy.pp entropy;
        ]
        :: !rows
    done
  done;
  Jqi_util.Ascii_table.print
    ~headers:[ "tuple"; Relation.name r; Relation.name p; "T (Fig. 3)"; "entropy (Fig. 5)" ]
    !rows

(* ----------------------------- analyze ---------------------------- *)

let cmd_analyze r_path p_path =
  let r, p = load_pair r_path p_path in
  let universe = Universe.build [ r; p ] in
  Fmt.pr "%a@." Jqi_core.Analysis.pp (Jqi_core.Analysis.analyze universe)

(* ------------------------------ query ----------------------------- *)

(* Run a SQL query over CSV files registered as tables.  Table specs are
   name=path pairs; the table name is what the query references. *)
let cmd_query sql table_specs =
  let catalog =
    List.map
      (fun spec ->
        let name, path = parse_table_spec spec in
        (name, Csv.load_relation ~name path))
      table_specs
  in
  match Jqi_sql.Engine.query catalog sql with
  | result -> Relation.print result
  | exception Jqi_sql.Engine.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1

(* ------------------------------ serve ----------------------------- *)

(* "host:port" (numeric host) or "path.sock" → a listener address. *)
let parse_listen_addr spec =
  match String.rindex_opt spec ':' with
  | Some k -> (
      let host = String.sub spec 0 k in
      let port = String.sub spec (k + 1) (String.length spec - k - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
          Jqi_server.Listener.Tcp ((if host = "" then "127.0.0.1" else host), p)
      | Some _ | None -> Jqi_server.Listener.Unix_path spec)
  | None -> Jqi_server.Listener.Unix_path spec

(* JSON-lines service.  Default deployment is the blocking loop on
   stdin/stdout (one client, one frame per line).  --listen switches to
   the concurrent front end: a socket listener feeding a domain worker
   pool over the sharded manager. *)
let cmd_serve table_specs seed idle_timeout listen workers queue shards
    sweep_every backend =
  let catalog = Jqi_server.Catalog.create ~shards () in
  let loader ~name path = Relstore.load_csv_relation ~backend ~name path in
  List.iter
    (fun spec ->
      let name, path = parse_table_spec spec in
      Jqi_server.Catalog.add ~name catalog (loader ~name path))
    table_specs;
  let idle_timeout = if idle_timeout > 0. then Some idle_timeout else None in
  let manager =
    Jqi_server.Manager.create ?idle_timeout ~seed ~shards ~loader catalog
  in
  match listen with
  | None -> Jqi_server.Service.serve_channels manager stdin stdout
  | Some spec ->
      let addr = parse_listen_addr spec in
      let pool = Jqi_server.Pool.create ~capacity:queue ~workers () in
      let listener =
        Jqi_server.Listener.start ~sweep_every ~pool manager addr
      in
      Printf.eprintf "jqinfer: listening on %s (%d workers, queue %d, %d shards)\n%!"
        (Jqi_server.Listener.addr_to_string
           (Jqi_server.Listener.address listener))
        workers queue shards;
      let stop_requested = Atomic.make false in
      let shutdown _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
      (* OCaml signal handlers only run when OCaml code executes, so a
         [Condition.wait] here would leave SIGINT/SIGTERM pending forever
         once every thread is parked in a blocking C call.  Napping in
         short ticks gives the runtime a safe point to deliver the
         handler, bounding shutdown latency to one tick. *)
      while not (Atomic.get stop_requested) do
        Thread.delay 0.2
      done;
      Jqi_server.Listener.stop listener;
      Jqi_server.Pool.shutdown pool

(* ------------------------------ client ---------------------------- *)

(* Scriptable protocol driver: spawn (or be pointed at) a server, load
   both CSVs into its catalog, open a session and answer every question
   honestly against --goal, evaluated locally.  Exits non-zero on any
   protocol failure, so CI can assert on both the exit code and the
   final "predicate:" line. *)
let cmd_client server_command r_path p_path goal_spec strategy resume_after
    churn_after =
  let module P = Jqi_server.Protocol in
  let ic, oc = Unix.open_process server_command in
  let next_id = ref 0 in
  let unexpected what resp =
    Printf.eprintf "%s: unexpected reply %s\n" what
      (P.encode_response ~id:0 resp);
    exit 1
  in
  let call req =
    incr next_id;
    output_string oc (P.encode_request ~id:!next_id req);
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | exception End_of_file ->
        Printf.eprintf "server closed the connection\n";
        exit 1
    | line -> (
        match P.decode_response line with
        | Ok (_, resp) -> resp
        | Error msg ->
            Printf.eprintf "undecodable response: %s\n" msg;
            exit 1)
  in
  (match call (P.Hello { versions = [ P.version ] }) with
  | P.Welcome { version } -> Printf.printf "protocol v%d\n" version
  | resp -> unexpected "hello" resp);
  let load path =
    match call (P.Load { name = None; path }) with
    | P.Loaded { name; rows } ->
        Printf.printf "loaded %s (%d rows)\n" name rows;
        name
    | resp -> unexpected "load" resp
  in
  let r_name = load r_path in
  let p_name = load p_path in
  (* The honest oracle, computed locally: positive iff goal ⊆ T(t). *)
  let r, p = load_pair r_path p_path in
  let omega = Omega.of_schemas (Relation.schema r) (Relation.schema p) in
  let goal = goal_of omega (parse_goal goal_spec) in
  let label_of r_row p_row =
    if
      Jqi_util.Bits.subset goal
        (Sample.signature_of_tuple omega r p (r_row, p_row))
    then Sample.Positive
    else Sample.Negative
  in
  let session =
    match call (P.Open_session { r = r_name; p = p_name; strategy }) with
    | P.Opened { session; classes; omega_width; cache_hit } ->
        Printf.printf "opened %s (%d classes, |Ω| = %d, cache_hit=%b)\n"
          session classes omega_width cache_hit;
        ref session
    | resp -> unexpected "open" resp
  in
  let answered = ref 0 in
  (* After --resume-after answers: freeze the session, close it and thaw
     the document into a fresh one — a live test of v2 persistence and of
     the universe cache (the re-open must be a hit). *)
  let freeze_thaw () =
    match call (P.Save { session = !session }) with
    | P.Saved { doc; _ } -> (
        (match call (P.Close { session = !session }) with
        | P.Closed _ -> ()
        | resp -> unexpected "close" resp);
        match
          call
            (P.Resume { r = r_name; p = p_name; strategy = Some strategy; doc })
        with
        | P.Opened { session = fresh; cache_hit; _ } ->
            Printf.printf "resumed as %s (cache_hit=%b)\n" fresh cache_hit;
            session := fresh
        | resp -> unexpected "resume" resp)
    | resp -> unexpected "save" resp
  in
  (* After --churn-after answers: duplicate R's first row over the wire,
     then delete the duplicate again — a net no-op churn round-trip whose
     point is the server-side machinery: both deltas must patch the
     cached universe and re-certify this very session (a stale flag is a
     protocol failure, since no label is contradicted). *)
  let churn () =
    let first_row_cells =
      List.map Jqi_relational.Value.to_string
        (Jqi_relational.Tuple.to_list (Relation.rows r).(0))
    in
    let send what insert delete =
      match call (P.Delta { relation = r_name; insert; delete }) with
      | P.Delta_applied
          { d_added; d_removed; d_cache_patched; d_recertified; d_stale; _ }
        ->
          Printf.printf
            "churn %s: +%d/-%d rows, %d cache entries patched, %d sessions \
             re-certified\n"
            what d_added d_removed d_cache_patched
            (List.length d_recertified);
          if not (List.mem !session d_recertified) then begin
            Printf.eprintf "churn %s: session %s was not re-certified\n" what
              !session;
            exit 1
          end;
          if not (List.is_empty d_stale) then begin
            Printf.eprintf "churn %s: unexpected stale sessions\n" what;
            exit 1
          end
      | resp -> unexpected ("churn " ^ what) resp
    in
    send "insert" [ first_row_cells ] [];
    send "delete" [] [ first_row_cells ]
  in
  let rec drive turn =
    match turn with
    | P.Question { q_r_row; q_p_row; q_r_cells; q_p_cells; _ } ->
        let label = label_of q_r_row q_p_row in
        incr answered;
        Printf.printf "Q%d  (%s) ⋈ (%s) -> %s\n" !answered
          (String.concat ", " q_r_cells)
          (String.concat ", " q_p_cells)
          (match label with Sample.Positive -> "+" | Sample.Negative -> "-");
        let next = call (P.Tell { session = !session; label }) in
        if Int.equal !answered churn_after then churn ();
        if Int.equal !answered resume_after then begin
          freeze_thaw ();
          drive (call (P.Ask { session = !session }))
        end
        else drive next
    | P.Done { predicate; n_interactions; _ } ->
        Printf.printf "predicate: %s\n"
          (String.concat ","
             (List.map (fun (a, b) -> a ^ "=" ^ b) predicate));
        Printf.printf "interactions: %d\n" n_interactions
    | resp -> unexpected "turn" resp
  in
  drive (call (P.Ask { session = !session }));
  (match call P.Stats with
  | P.Stats_reply { cache_hits; cache_misses; _ } ->
      Printf.printf "cache: %d hits, %d misses\n" cache_hits cache_misses
  | resp -> unexpected "stats" resp);
  (match call (P.Close { session = !session }) with
  | P.Closed _ -> ()
  | resp -> unexpected "close" resp);
  ignore (Unix.close_process (ic, oc))

(* ------------------------------ CLI ------------------------------- *)

open Cmdliner

let r_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"R.csv")
let p_arg = Arg.(required & pos 1 (some file) None & info [] ~docv:"P.csv")

(* infer/simulate accept either the two positionals or --relations; the
   positionals become optional there and the command validates. *)
let r_opt_arg = Arg.(value & pos 0 (some file) None & info [] ~docv:"R.csv")
let p_opt_arg = Arg.(value & pos 1 (some file) None & info [] ~docv:"P.csv")

let relations_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "relations" ] ~docv:"A.csv,B.csv,C.csv"
        ~doc:"Infer an equijoin over two or more comma-separated CSV files \
              instead of the R.csv P.csv positionals (two files are the same \
              instance as the positionals); questions show one row per \
              relation.  An item $(i,NAME)=$(i,PATH) names its relation \
              (default: the file name without extension), as in \
              $(b,serve).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed for randomized strategies.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Trace every question (debug logs).")

let strategy_arg =
  Arg.(
    value & opt string "td"
    & info [ "s"; "strategy" ] ~doc:"Strategy: bu, td, l1s, l2s, rnd, igs, hybrid.")

let universe_arg =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "naive" -> Ok `Naive
    | "quotient" -> Ok `Quotient
    | s when String.length s > 8 && String.equal (String.sub s 0 8) "sampled:" -> (
        match int_of_string_opt (String.sub s 8 (String.length s - 8)) with
        | Some pairs when pairs > 0 -> Ok (`Sampled pairs)
        | Some _ | None ->
            Error (`Msg "sampled:<pairs> needs a positive pair count"))
    | _ -> Error (`Msg "expected naive, quotient or sampled:<pairs>")
  in
  let print ppf b = Fmt.string ppf (builder_name b) in
  Arg.(
    value
    & opt (conv (parse, print)) `Quotient
    & info [ "universe" ] ~docv:"BUILDER"
        ~doc:"Universe constructor: $(b,quotient) (dictionary-encoded \
              row-profile quotient — the default), $(b,naive) (the Cartesian \
              reference scan), or $(b,sampled:)$(i,PAIRS) (that many uniform \
              random tuples instead of a full scan; approximate).")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"TRACE.json"
        ~doc:"Write a Chrome-trace JSON of the run (open in chrome://tracing \
              or Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the instrumentation report (counters, histograms, span \
              tree) after the run.")

let backend_str_arg =
  Arg.(
    value & opt string "mem"
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:"Relation storage backend: $(b,mem) (rows in arrays — the \
              default) or $(b,paged) (rows stream into heap-file stores \
              read back through a --buffer-pages-frame buffer pool; \
              universes are byte-identical across backends).")

let buffer_pages_arg =
  Arg.(
    value & opt int Relstore.default_frames
    & info [ "buffer-pages" ] ~docv:"N"
        ~doc:"Buffer-pool frames per paged relation (with --backend paged).")

let backend_term =
  Term.(
    const (fun spec frames ->
        match Relstore.backend_of_string ~frames spec with
        | Some b -> b
        | None ->
            Printf.eprintf "unknown --backend %S (mem|paged)\n" spec;
            Stdlib.exit 2)
    $ backend_str_arg $ buffer_pages_arg)

let resume_arg =
  Arg.(value & opt (some file) None
       & info [ "resume" ] ~docv:"SESSION.json" ~doc:"Resume a saved session.")

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "save" ] ~docv:"SESSION.json" ~doc:"Save the session when done.")

let infer_cmd =
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Interactively infer an equijoin over two CSV files (or k with \
             --relations)")
    Term.(const cmd_infer $ r_opt_arg $ p_opt_arg $ relations_arg
          $ strategy_arg $ seed_arg $ verbose_arg $ universe_arg
          $ backend_term $ resume_arg $ save_arg $ trace_arg $ metrics_arg)

let goal_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "goal" ] ~docv:"A=B,C=D" ~doc:"Goal equijoin predicate (column name pairs).")

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Replay inference with a known goal, all strategies")
    Term.(const cmd_simulate $ r_opt_arg $ p_opt_arg $ relations_arg $ goal_arg
          $ seed_arg $ verbose_arg $ universe_arg $ backend_term
          $ trace_arg $ metrics_arg)

let scale_arg = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Scale factor.")
let out_arg = Arg.(value & opt string "data" & info [ "out" ] ~doc:"Output directory.")

let gen_tpch_cmd =
  Cmd.v
    (Cmd.info "gen-tpch" ~doc:"Generate TPC-H-style CSV files")
    Term.(const cmd_gen_tpch $ scale_arg $ seed_arg $ out_arg)

let config_arg =
  Arg.(
    value & opt string "3,3,50,100"
    & info [ "config" ] ~docv:"n,m,l,v" ~doc:"Synthetic configuration (§5.2).")

let gen_synth_cmd =
  Cmd.v
    (Cmd.info "gen-synth" ~doc:"Generate a synthetic instance")
    Term.(const cmd_gen_synth $ config_arg $ seed_arg $ out_arg)

let pos_arg =
  Arg.(value & opt string "" & info [ "pos" ] ~docv:"I,J,..." ~doc:"Positive row indexes (0-based) of R.")

let neg_arg =
  Arg.(value & opt string "" & info [ "neg" ] ~docv:"I,J,..." ~doc:"Negative row indexes (0-based) of R.")

let semijoin_cmd =
  Cmd.v
    (Cmd.info "semijoin-cons" ~doc:"Decide semijoin consistency (CONS⋉, NP-complete)")
    Term.(const cmd_semijoin_cons $ r_arg $ p_arg $ pos_arg $ neg_arg)

let dot_arg =
  Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE.dot" ~doc:"Output file (stdout if absent).")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let tables_arg =
  Arg.(
    value & opt_all string []
    & info [ "t"; "table" ] ~docv:"NAME=FILE.csv"
        ~doc:"Register a CSV file as a table (repeatable).")

let max_queries_arg =
  Arg.(value & opt (some int) None & info [ "max-queries" ] ~doc:"Question budget.")

let semijoin_infer_cmd =
  Cmd.v
    (Cmd.info "semijoin-infer"
       ~doc:"Interactively infer a semijoin filter (NP-oracle heuristic)")
    Term.(const cmd_semijoin_infer $ r_arg $ p_arg $ max_queries_arg)

let figure_cmd =
  Cmd.v
    (Cmd.info "figure"
       ~doc:"Tabulate T and entropy for every tuple (the paper's Figures 3/5)")
    Term.(const cmd_figure $ r_arg $ p_arg)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Report instance structure and recommend a strategy (§5.3)")
    Term.(const cmd_analyze $ r_arg $ p_arg)

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Run a SQL query over CSV tables")
    Term.(const cmd_query $ sql_arg $ tables_arg)

let lattice_cmd =
  Cmd.v
    (Cmd.info "lattice" ~doc:"Export the join-predicate lattice (Figure 4) as Graphviz")
    Term.(const cmd_lattice $ r_arg $ p_arg $ dot_arg)

let idle_timeout_arg =
  Arg.(
    value & opt float 0.
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Evict sessions idle longer than this (0 = never).")

let listen_arg =
  Arg.(
    value & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Serve over a socket instead of stdin/stdout: $(i,HOST:PORT) \
              for TCP (port 0 picks one) or a filesystem path for a \
              Unix-domain socket.")

let workers_arg =
  Arg.(
    value & opt int 4
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains driving the inference engine (with --listen).")

let queue_arg =
  Arg.(
    value & opt int 256
    & info [ "queue" ] ~docv:"N"
        ~doc:"Bounded request queue; requests beyond it are shed with a \
              $(i,busy) error frame (with --listen).")

let shards_arg =
  Arg.(
    value & opt int 16
    & info [ "shards" ] ~docv:"N"
        ~doc:"Session/universe lock shards.")

let sweep_every_arg =
  Arg.(
    value & opt float 1.
    & info [ "sweep-every" ] ~docv:"SECONDS"
        ~doc:"Idle-eviction sweep period (with --listen; 0 disables).")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the JSON-lines inference protocol (stdin/stdout, or \
             --listen for the concurrent socket front end)")
    Term.(const cmd_serve $ tables_arg $ seed_arg $ idle_timeout_arg
          $ listen_arg $ workers_arg $ queue_arg $ shards_arg
          $ sweep_every_arg $ backend_term)

let server_command_arg =
  Arg.(
    value
    & opt string "jqinfer serve"
    & info [ "server" ] ~docv:"CMD"
        ~doc:"Command to launch the server; spoken to over its stdin/stdout.")

let resume_after_arg =
  Arg.(
    value & opt int 0
    & info [ "resume-after" ] ~docv:"N"
        ~doc:"After N answers, save the session, close it and thaw it again \
              (exercises persistence and the universe cache); 0 disables.")

let churn_after_arg =
  Arg.(
    value & opt int 0
    & info [ "churn-after" ] ~docv:"N"
        ~doc:"After N answers, insert a duplicate of R's first row over the \
              wire and delete it again (exercises delta frames and session \
              re-certification); 0 disables.")

let client_cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:"Drive a served inference session to completion with a known goal")
    Term.(const cmd_client $ server_command_arg $ r_arg $ p_arg $ goal_arg
          $ strategy_arg $ resume_after_arg $ churn_after_arg)

let main =
  Cmd.group
    (Cmd.info "jqinfer" ~version:"1.0.0"
       ~doc:"Interactive inference of join queries (EDBT 2014 reproduction)")
    [ infer_cmd; simulate_cmd; gen_tpch_cmd; gen_synth_cmd; semijoin_cmd;
      semijoin_infer_cmd; lattice_cmd; query_cmd; analyze_cmd; figure_cmd;
      serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
