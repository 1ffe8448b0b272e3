(* Frame dispatcher.  The interesting work happens in [Manager]; this
   module renders its answers for a client that holds no relation data —
   questions carry the representative pair's cells, outcomes carry the
   predicate as attribute-name pairs. *)

module Csv = Jqi_relational.Csv
module Relation = Jqi_relational.Relation
module Tuple = Jqi_relational.Tuple
module Value = Jqi_relational.Value
module Engine = Jqi_core.Engine
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe

let error_code = function
  | Manager.Unknown_relation _ -> "unknown_relation"
  | Manager.Unknown_strategy _ -> "unknown_strategy"
  | Manager.Unknown_session _ -> "unknown_session"
  | Manager.No_pending _ -> "no_pending"
  | Manager.Corrupt_session _ -> "corrupt_session"
  | Manager.Stale_label _ -> "stale_label"
  | Manager.Bad_delta _ -> "bad_delta"

let error e =
  Protocol.Error { code = error_code e; message = Manager.error_message e }

let opened (info : Manager.info) =
  Protocol.Opened
    {
      session = info.Manager.id;
      classes = info.Manager.classes;
      omega_width = info.Manager.omega_width;
      cache_hit = info.Manager.cache_hit;
    }

(* The one path behind open/open_kary and resume/resume_kary: [open_]
   builds (or fetches) the universe, and this is the only place its
   build errors become error frames. *)
let open_frame open_ =
  match open_ () with
  | exception Invalid_argument message ->
      Protocol.Error { code = "invalid"; message }
  | exception Universe.Kary_too_large { work; limit } ->
      Protocol.Error
        {
          code = "too_large";
          message =
            Printf.sprintf
              "k-ary universe too large: %d work units exceeds limit %d" work
              limit;
        }
  | Ok info -> opened info
  | Error e -> error e

let cells tuple = List.map Value.to_string (Tuple.to_list tuple)

(* Binary sessions keep the historical [Question] frame byte-for-byte;
   wider sessions answer with [Kquestion] (one row + cell list per
   relation). *)
let render_question universe session (q : Engine.question) =
  let rep = (Universe.cls universe q.Engine.class_id).Universe.rep in
  if Universe.n_relations universe = 2 then
    let r_cells, p_cells =
      match q.Engine.rows with
      | Some [| tr; tp |] -> (cells tr, cells tp)
      | Some _ | None -> ([], [])
    in
    Protocol.Question
      {
        q_session = session;
        q_class = q.Engine.class_id;
        q_r_row = rep.(0);
        q_p_row = rep.(1);
        q_r_cells = r_cells;
        q_p_cells = p_cells;
      }
  else
    let k_cells =
      match q.Engine.rows with
      | Some tuples -> Array.to_list (Array.map cells tuples)
      | None -> []
    in
    Protocol.Kquestion
      {
        k_session = session;
        k_class = q.Engine.class_id;
        k_rows = Array.to_list rep;
        k_cells;
      }

let render_done universe session (outcome : Engine.outcome) =
  let omega = Universe.omega universe in
  let predicate =
    if Universe.n_relations universe = 2 then
      List.map
        (fun (i, j) -> (Omega.r_name omega i, Omega.p_name omega j))
        (Omega.to_pairs omega outcome.Engine.predicate)
    else
      let qualify i a =
        Omega.rel_name omega i ^ "." ^ Omega.attr_name omega i a
      in
      List.map
        (fun ((i, a), (j, b)) -> (qualify i a, qualify j b))
        (Omega.to_kpairs omega outcome.Engine.predicate)
  in
  Protocol.Done
    {
      session;
      predicate;
      n_interactions = outcome.Engine.n_interactions;
    }

let render_turn manager session turn =
  match Manager.session_universe manager session with
  | None ->
      Protocol.Error
        { code = "internal"; message = "session vanished mid-request" }
  | Some universe -> (
      match turn with
      | Manager.Next q -> render_question universe session q
      | Manager.Finished outcome -> render_done universe session outcome)

let handle manager request =
  match request with
  | Protocol.Hello { versions } -> (
      match Protocol.negotiate versions with
      | Some v -> Protocol.Welcome { version = v }
      | None ->
          Protocol.Error
            {
              code = "version";
              message =
                Printf.sprintf "no common protocol version (server speaks %d)"
                  Protocol.version;
            })
  | Protocol.Load { name; path } -> (
      let name =
        match name with
        | Some n -> n
        | None -> Filename.remove_extension (Filename.basename path)
      in
      match Manager.load manager ~name path with
      | exception Sys_error message -> Protocol.Error { code = "io"; message }
      | exception Invalid_argument message ->
          Protocol.Error { code = "csv"; message }
      | rel -> Protocol.Loaded { name; rows = Relation.cardinality rel })
  | Protocol.Open_session { r; p; strategy } ->
      open_frame (fun () ->
          Manager.open_session manager ~relations:[ r; p ] ~strategy)
  | Protocol.Open_kary { relations; strategy } ->
      open_frame (fun () -> Manager.open_session manager ~relations ~strategy)
  | Protocol.Ask { session } -> (
      match Manager.ask manager session with
      | Ok turn -> render_turn manager session turn
      | Error e -> error e)
  | Protocol.Tell { session; label } -> (
      match Manager.tell manager session label with
      | Ok turn -> render_turn manager session turn
      | Error e -> error e)
  | Protocol.Save { session } -> (
      match Manager.save manager session with
      | Ok doc -> Protocol.Saved { session; doc }
      | Error e -> error e)
  | Protocol.Resume { r; p; strategy; doc } ->
      open_frame (fun () ->
          Manager.resume_session manager ~relations:[ r; p ] ?strategy doc)
  | Protocol.Resume_kary { relations; strategy; doc } ->
      open_frame (fun () ->
          Manager.resume_session manager ~relations ?strategy doc)
  | Protocol.Delta { relation; insert; delete } -> (
      match Catalog.find (Manager.catalog manager) relation with
      | None -> error (Manager.Unknown_relation relation)
      | Some rel -> (
          (* Wire rows are cell strings; parse them under the live
             relation's schema, CSV-style ("" is NULL), so a client
             speaks the same dialect it loaded with. *)
          let schema = Relation.schema rel in
          let columns = Jqi_relational.Schema.columns schema in
          let arity = Jqi_relational.Schema.arity schema in
          let parse_rows what rows =
            List.map
              (fun cells ->
                if List.compare_lengths cells columns <> 0 then
                  invalid_arg
                    (Printf.sprintf "%s row cell count mismatch: %s has arity %d"
                       what relation arity)
                else
                  Tuple.of_list
                    (List.map2
                       (fun (col : Jqi_relational.Schema.column) c ->
                         match Value.parse col.Jqi_relational.Schema.ty c with
                         | Some v -> v
                         | None ->
                             invalid_arg
                               (Printf.sprintf
                                  "%s row cell %s: %S does not parse as %s"
                                  what col.Jqi_relational.Schema.name c
                                  (Value.ty_name col.Jqi_relational.Schema.ty)))
                       columns cells))
              rows
          in
          match
            Jqi_relational.Delta.of_lists
              ~adds:(parse_rows "insert" insert)
              ~removes:(parse_rows "delete" delete)
          with
          | exception Invalid_argument message ->
              Protocol.Error { code = "bad_delta"; message }
          | d -> (
              match Manager.apply_delta manager ~relation d with
              | Ok info ->
                  Protocol.Delta_applied
                    {
                      d_relation = info.Manager.relation;
                      d_added = info.Manager.added;
                      d_removed = info.Manager.removed;
                      d_cache_patched = info.Manager.cache_patched;
                      d_cache_dropped = info.Manager.cache_dropped;
                      d_recertified = info.Manager.recertified;
                      d_stale = info.Manager.stale;
                    }
              | Error e -> error e)))
  | Protocol.Close { session } -> (
      match Manager.close manager session with
      | Ok () -> Protocol.Closed { session }
      | Error e -> error e)
  | Protocol.Stats ->
      let catalog = Manager.catalog manager in
      let hits, misses = Catalog.stats catalog in
      Protocol.Stats_reply
        {
          sessions = Manager.session_count manager;
          relations = Catalog.names catalog;
          cache_hits = hits;
          cache_misses = misses;
          (* The peak of all domains' heap words together, Pool workers
             included. *)
          top_heap_words = Some (Gc.quick_stat ()).Gc.top_heap_words;
        }

let handle_line manager line =
  match Protocol.decode_request line with
  | Ok (id, request) -> Protocol.encode_response ~id (handle manager request)
  | Error (id, response) -> Protocol.encode_response ~id response

(* The backpressure frame: what a shed request is answered with when the
   worker pool's bounded queue is full.  Typed so clients can tell
   overload (retry later, with backoff) from a protocol mistake. *)
let busy () =
  Protocol.Error
    {
      code = "busy";
      message = "server overloaded — request shed, retry with backoff";
    }

(* The original single-client deployment: a blocking JSON-lines loop
   over a channel pair.  [bin/jqinfer serve] runs it on stdin/stdout;
   the bench runs it over a socketpair as the single-threaded
   differential baseline for the concurrent listener. *)
let serve_channels ?(sweep = true) manager ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        if not (String.equal (String.trim line) "") then begin
          output_string oc (handle_line manager line);
          output_char oc '\n';
          flush oc
        end;
        if sweep then ignore (Manager.sweep manager);
        loop ()
  in
  loop ()
