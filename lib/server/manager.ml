(* The session manager: the server's heart.

   A session is an [Engine] plus addressing metadata; the manager owns the
   id space, the idle clock and the Obs accounting.  Sessions are hashed
   across shards by id — one mutex per shard — so requests for sessions
   on different shards run in parallel from any number of domains; each
   request is a pure state transition on one session's engine value,
   executed under exactly one shard lock.  Ids come from a process-wide
   atomic counter, so they are globally unique without any global lock.

   Eviction keeps the EOF-path guarantee: a swept session is first frozen
   as a [Session] document (labels, strategy, and the in-flight
   question if one is outstanding) into a bounded per-shard morgue, from
   which [evicted_doc] lets a returning client resume instead of losing
   its answers. *)

module Engine = Jqi_core.Engine
module Strategy = Jqi_core.Strategy
module Session = Jqi_core.Session
module Universe = Jqi_core.Universe
module Sample = Jqi_core.Sample
module Delta = Jqi_relational.Delta
module Obs = Jqi_obs.Obs

let c_opened = Obs.Counter.make "server.sessions_opened"
let c_resumed = Obs.Counter.make "server.sessions_resumed"
let c_closed = Obs.Counter.make "server.sessions_closed"
let c_evicted = Obs.Counter.make "server.sessions_evicted"
let c_questions = Obs.Counter.make "server.questions"
let c_labels = Obs.Counter.make "server.labels"
let c_autosaved = Obs.Counter.make "server.shard.evict_autosave"
let c_recertified = Obs.Counter.make "server.sessions_recertified"
let c_stale = Obs.Counter.make "server.sessions_stale"

type error =
  | Unknown_relation of string
  | Unknown_strategy of string
  | Unknown_session of string
  | No_pending of string
  | Corrupt_session of string
  | Stale_label of string
  | Bad_delta of string

let error_message = function
  | Unknown_relation n -> Printf.sprintf "no relation %S in the catalog" n
  | Unknown_strategy n ->
      Printf.sprintf
        "unknown strategy %S (bu|td|l1s|l2s|hybrid|rnd|igs)" n
  | Unknown_session id -> Printf.sprintf "no session %S" id
  | No_pending id ->
      Printf.sprintf "session %S has no outstanding question (ask first)" id
  | Corrupt_session msg -> Printf.sprintf "session document rejected: %s" msg
  | Stale_label msg -> msg
  | Bad_delta msg -> Printf.sprintf "delta rejected: %s" msg

let label_glyph = function Sample.Positive -> "+" | Sample.Negative -> "-"

(* Render [Engine.stale_reason] for the wire: which part of the replay
   died, and on which signature, so a client can decide what to re-ask. *)
let stale_reason_string = function
  | Engine.Label_retired { step; signature; label } ->
      Printf.sprintf "label #%d (%s on %s) names a class retired by churn"
        step (label_glyph label)
        (Jqi_util.Bits.to_string signature)
  | Engine.Label_contradicts { step; signature; label } ->
      Printf.sprintf
        "label #%d (%s on %s) contradicts the post-churn instance" step
        (label_glyph label)
        (Jqi_util.Bits.to_string signature)
  | Engine.Question_retired { signature } ->
      Printf.sprintf
        "the pending question's class %s was retired by churn"
        (Jqi_util.Bits.to_string signature)

let stale_doc_message signature label =
  Printf.sprintf "%s class %s was retired by churn"
    (match label with
    | Some l -> Printf.sprintf "the %s-labeled" (label_glyph l)
    | None -> "the pending question's")
    (Jqi_util.Bits.to_string signature)

type info = {
  id : string;
  rel_names : string list;  (* catalog names, in relation order *)
  strategy_name : string;
  classes : int;
  omega_width : int;
  cache_hit : bool;
}

type turn = Next of Engine.question | Finished of Engine.outcome

type stats = {
  live : int;
  opened : int;
  resumed : int;
  closed : int;
  evicted : int;
  autosaved : int;
  questions : int;
  labels : int;
}

let zero_stats =
  {
    live = 0;
    opened = 0;
    resumed = 0;
    closed = 0;
    evicted = 0;
    autosaved = 0;
    questions = 0;
    labels = 0;
  }

let add_stats a b =
  {
    live = a.live + b.live;
    opened = a.opened + b.opened;
    resumed = a.resumed + b.resumed;
    closed = a.closed + b.closed;
    evicted = a.evicted + b.evicted;
    autosaved = a.autosaved + b.autosaved;
    questions = a.questions + b.questions;
    labels = a.labels + b.labels;
  }

type session = {
  s_id : string;
  s_rels : string list;  (* catalog names, in relation order *)
  s_strategy : string;  (* [Strategy.name], e.g. "TD" *)
  mutable s_universe : Universe.t [@lint.guarded_by "shards"];
      (* swapped by [apply_delta] when the session re-certifies *)
  mutable s_engine : Engine.t [@lint.guarded_by "shards"];
  mutable s_stale : string option [@lint.guarded_by "shards"];
      (* set when re-certification failed; ask/tell refuse, save works *)
  mutable s_last_active : float [@lint.guarded_by "shards"];
}

(* Everything inside a shard is guarded by that shard's mutex; the
   counters are exact, unlike the best-effort cross-domain Obs ones. *)
type shard = {
  sessions : (string, session) Hashtbl.t [@lint.guarded_by "shards"];
  morgue : (string, Jqi_util.Json.t) Hashtbl.t [@lint.guarded_by "shards"];
      (* autosaved evictees *)
  morgue_order : string Queue.t [@lint.guarded_by "shards"];
      (* FIFO for the morgue bound *)
  mutable st : stats [@lint.guarded_by "shards"];
      (* [live] unused here; computed from [sessions] *)
}

(* Autosaved documents kept per shard; older ones are dropped first. *)
let max_morgue = 512

type loader = name:string -> string -> Jqi_relational.Relation.t

type t = {
  catalog : Catalog.t;
  loader : loader;
  shards : shard Shard.t;
  clock : unit -> float;
  idle_timeout : float option;
  seed : int;
  next_id : int Atomic.t;
}

(* The default loader materializes in memory; [bin/jqinfer] injects a
   paged one (jqi.storage) so served relations can live in heap files
   under a buffer-pool budget without this library depending on the
   storage engine. *)
let default_loader ~name path = Jqi_relational.Csv.load_relation ~name path

let create ?clock ?idle_timeout ?(seed = 42) ?shards ?loader catalog =
  let clock = match clock with Some c -> c | None -> Obs.now in
  let loader = match loader with Some l -> l | None -> default_loader in
  {
    catalog;
    loader;
    shards =
      Shard.create ?shards (fun _ ->
          {
            sessions = Hashtbl.create 16;
            morgue = Hashtbl.create 4;
            morgue_order = Queue.create ();
            st = zero_stats;
          });
    clock;
    idle_timeout;
    seed;
    next_id = Atomic.make 1;
  }

let catalog t = t.catalog
let shards t = Shard.size t.shards

(* Load a CSV through the injected backend and register it in the
   catalog under [name].  Exceptions ([Sys_error], [Invalid_argument])
   propagate for the transport layer to render. *)
let load t ~name path =
  let rel = t.loader ~name path in
  Catalog.add ~name t.catalog rel;
  rel

let fresh_id t = Printf.sprintf "s%d" (Atomic.fetch_and_add t.next_id 1)

(* Shared tail of open/resume: wrap an engine into a registered session.
   The id is drawn before locking, so only the target shard is held. *)
let register t ~rel_names ~strategy_name ~universe ~cache_hit ~resumed engine =
  let id = fresh_id t in
  let session =
    {
      s_id = id;
      s_rels = rel_names;
      s_strategy = strategy_name;
      s_universe = universe;
      s_engine = engine;
      s_stale = None;
      s_last_active = t.clock ();
    }
  in
  Shard.with_key t.shards id (fun shard ->
      Hashtbl.replace shard.sessions id session;
      shard.st <-
        (if resumed then { shard.st with resumed = shard.st.resumed + 1 }
         else { shard.st with opened = shard.st.opened + 1 }));
  {
    id;
    rel_names;
    strategy_name;
    classes = Universe.n_classes universe;
    omega_width = Jqi_core.Omega.width (Universe.omega universe);
    cache_hit;
  }

(* Resolve catalog names in order; the first unknown name is the error. *)
let relation_list t names =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
        match Catalog.find t.catalog name with
        | Some rel -> go (rel :: acc) rest
        | None -> Error (Unknown_relation name))
  in
  go [] names

let span_attrs names = [ ("relations", String.concat "," names) ]

(* [Invalid_argument] (fewer than two relations) and
   [Universe.Kary_too_large] propagate — the service layer renders both
   as error frames. *)
let open_session t ~relations ~strategy =
  Obs.span ~attrs:(span_attrs relations) "server.open" (fun () ->
      match relation_list t relations with
      | Error e -> Error e
      | Ok rels -> (
          match Strategy.of_name ~seed:t.seed strategy with
          | None -> Error (Unknown_strategy strategy)
          | Some strat ->
              let cache_hit, universe = Catalog.universe t.catalog rels in
              let engine = Engine.create universe strat in
              Obs.Counter.incr c_opened;
              Ok
                (register t ~rel_names:relations
                   ~strategy_name:(Strategy.name strat) ~universe ~cache_hit
                   ~resumed:false engine)))

let resume_session t ~relations ?strategy doc =
  Obs.span ~attrs:(span_attrs relations) "server.resume" (fun () ->
      match relation_list t relations with
      | Error e -> Error e
      | Ok rels -> (
          let cache_hit, universe = Catalog.universe t.catalog rels in
          match Session.of_json_full universe doc with
          | exception Session.Corrupt msg -> Error (Corrupt_session msg)
          | exception Session.Stale_label { signature; label } ->
              Error (Stale_label (stale_doc_message signature label))
          | loaded -> (
              let strategy_name =
                match (strategy, loaded.Session.strategy) with
                | Some s, _ -> s
                | None, Some s -> s
                | None, None -> "td"
              in
              match Strategy.of_name ~seed:t.seed strategy_name with
              | None -> Error (Unknown_strategy strategy_name)
              | Some strat -> (
                  match
                    Session.pending_class
                      ?signature:loaded.Session.pending_sig universe
                      loaded.Session.state loaded.Session.pending
                  with
                  | exception Session.Stale_label { signature; label } ->
                      Error (Stale_label (stale_doc_message signature label))
                  | pending ->
                      let engine =
                        Engine.create ~state:loaded.Session.state ?pending
                          universe strat
                      in
                      Obs.Counter.incr c_resumed;
                      Ok
                        (register t ~rel_names:relations
                           ~strategy_name:(Strategy.name strat) ~universe
                           ~cache_hit ~resumed:true engine)))))

(* Run [f] on the live session [id] under its shard's lock, stamping the
   idle clock.  All reads and writes of a session happen inside this. *)
let with_session t id f =
  Shard.with_key t.shards id (fun shard ->
      match Hashtbl.find_opt shard.sessions id with
      | None -> Error (Unknown_session id)
      | Some s ->
          s.s_last_active <- t.clock ();
          f shard s)

let turn_of shard session =
  match Engine.pending session.s_engine with
  | Some q ->
      Obs.Counter.incr c_questions;
      shard.st <- { shard.st with questions = shard.st.questions + 1 };
      Next q
  | None -> Finished (Engine.result session.s_engine)

(* A stale session refuses further inference — its engine is pinned to a
   pre-delta universe the catalog no longer serves — but [save] still
   works, so the labels are recoverable. *)
let check_live id session =
  match session.s_stale with
  | None -> Ok ()
  | Some reason ->
      Error
        (Stale_label
           (Printf.sprintf "session %S is stale after data churn: %s" id
              reason))

let ask t id =
  Obs.span ~attrs:[ ("session", id) ] "server.ask" (fun () ->
      with_session t id (fun shard s ->
          match check_live id s with
          | Error err -> Error err
          | Ok () -> Ok (turn_of shard s)))

let tell t id label =
  Obs.span ~attrs:[ ("session", id) ] "server.tell" (fun () ->
      with_session t id (fun shard session ->
          match check_live id session with
          | Error err -> Error err
          | Ok () -> (
              match Engine.pending session.s_engine with
              | None -> Error (No_pending id)
              | Some _ ->
                  Obs.Counter.incr c_labels;
                  shard.st <- { shard.st with labels = shard.st.labels + 1 };
                  session.s_engine <- Engine.answer session.s_engine label;
                  Ok (turn_of shard session))))

(* Freeze a session as a document (v2 binary, v3 k-ary): labels,
   strategy, and the pending question.  Called under the shard lock (from
   [save] and [sweep]). *)
let doc_of_session session =
  let pending =
    match Engine.pending session.s_engine with
    | Some q ->
        Some (Universe.cls session.s_universe q.Engine.class_id).Universe.rep
    | None -> None
  in
  let outcome = Engine.result session.s_engine in
  Session.to_json ~strategy:session.s_strategy ?pending session.s_universe
    outcome.Engine.state

let save t id =
  Obs.span ~attrs:[ ("session", id) ] "server.save" (fun () ->
      with_session t id (fun _shard session -> Ok (doc_of_session session)))

let close t id =
  with_session t id (fun shard _ ->
      Hashtbl.remove shard.sessions id;
      Obs.Counter.incr c_closed;
      shard.st <- { shard.st with closed = shard.st.closed + 1 };
      Ok ())

(* ---- data churn: delta ingestion + re-certification broadcast ---- *)

type delta_info = {
  relation : string;
  added : int;
  removed : int;
  cache_patched : int;  (* universe-cache entries migrated, not rebuilt *)
  cache_dropped : int;  (* universe-cache entries evicted *)
  recertified : string list;  (* sessions carried over, sorted *)
  stale : (string * string) list;  (* (session id, reason), sorted *)
}

(* Carry one session over to the post-delta universe.  Runs under the
   session's shard lock; the catalog lookup is expected to hit the entry
   [Catalog.apply_delta] just patched (distinct lock domains, so the
   nesting is safe). *)
let recertify_one t s =
  match relation_list t s.s_rels with
  | Error (Unknown_relation n) ->
      Error (Printf.sprintf "relation %S left the catalog" n)
  | Error
      ( Unknown_strategy _ | Unknown_session _ | No_pending _
      | Corrupt_session _ | Stale_label _ | Bad_delta _ ) ->
      Error "a session relation left the catalog"
  | Ok rels -> (
      match Catalog.universe t.catalog rels with
      | exception Universe.Kary_too_large { work; limit } ->
          Error
            (Printf.sprintf
               "the post-delta universe exceeds the k-ary work limit \
                (%d > %d)"
               work limit)
      | exception Invalid_argument msg -> Error msg
      | _hit, u' -> (
          match Engine.recertify s.s_engine u' with
          | Engine.Recertified e' ->
              s.s_engine <- e';
              s.s_universe <- u';
              s.s_stale <- None;
              Ok ()
          | Engine.Stale r -> Error (stale_reason_string r)))

(* Broadcast: every live session over [relation] is re-certified against
   the post-delta universe; the ones that fail are flagged stale (their
   engines keep the pre-delta universe, so [save] stays coherent). *)
let recertify_sessions t ~relation =
  Shard.fold t.shards ~init:([], []) ~f:(fun acc _ shard ->
      Hashtbl.fold
        (fun id s (ok, bad) ->
          if not (List.mem relation s.s_rels) then (ok, bad)
          else
            match recertify_one t s with
            | Ok () ->
                Obs.Counter.incr c_recertified;
                (id :: ok, bad)
            | Error reason ->
                s.s_stale <- Some reason;
                Obs.Counter.incr c_stale;
                (ok, (id, reason) :: bad))
        shard.sessions acc)

let apply_delta t ~relation d =
  Obs.span ~attrs:[ ("relation", relation) ] "server.delta" (fun () ->
      match Catalog.apply_delta t.catalog ~name:relation d with
      | None -> Error (Unknown_relation relation)
      | exception Invalid_argument msg -> Error (Bad_delta msg)
      | Some churn ->
          let ok, bad = recertify_sessions t ~relation in
          Ok
            {
              relation;
              added = Array.length d.Delta.adds;
              removed = Array.length d.Delta.removes;
              cache_patched = churn.Catalog.patched;
              cache_dropped = churn.Catalog.dropped;
              recertified = List.sort String.compare ok;
              stale = List.sort (fun (a, _) (b, _) -> String.compare a b) bad;
            })

(* Stash an evicted session's document, dropping the oldest entries past
   the morgue bound.  Under the shard lock. *)
let stash shard id doc =
  if not (Hashtbl.mem shard.morgue id) then Queue.add id shard.morgue_order;
  Hashtbl.replace shard.morgue id doc;
  while Hashtbl.length shard.morgue > max_morgue do
    match Queue.take_opt shard.morgue_order with
    | Some oldest -> Hashtbl.remove shard.morgue oldest
    | None -> Hashtbl.reset shard.morgue
  done

let sweep t =
  match t.idle_timeout with
  | None -> []
  | Some timeout ->
      let now = t.clock () in
      let evicted =
        Shard.fold t.shards ~init:[] ~f:(fun acc _ shard ->
            let stale =
              Hashtbl.fold
                (fun id s acc ->
                  if now -. s.s_last_active > timeout then (id, s) :: acc
                  else acc)
                shard.sessions []
            in
            List.iter
              (fun (id, s) ->
                (* The EOF-path guarantee: never drop a labeler's answers.
                   Autosave before removal — pending question included —
                   so the session is resumable from [evicted_doc]. *)
                stash shard id (doc_of_session s);
                Hashtbl.remove shard.sessions id;
                Obs.Counter.incr c_evicted;
                Obs.Counter.incr c_autosaved;
                shard.st <-
                  {
                    shard.st with
                    evicted = shard.st.evicted + 1;
                    autosaved = shard.st.autosaved + 1;
                  })
              stale;
            List.rev_append (List.rev_map fst stale) acc)
      in
      List.sort String.compare evicted

let evicted_doc t id =
  Shard.with_key t.shards id (fun shard -> Hashtbl.find_opt shard.morgue id)

let session_count t =
  Shard.fold t.shards ~init:0 ~f:(fun n _ shard ->
      n + Hashtbl.length shard.sessions)

let session_ids t =
  List.sort String.compare
    (Shard.fold t.shards ~init:[] ~f:(fun acc _ shard ->
         Hashtbl.fold (fun id _ acc -> id :: acc) shard.sessions acc))

let session_universe t id =
  Shard.with_key t.shards id (fun shard ->
      Option.map
        (fun s -> s.s_universe)
        (Hashtbl.find_opt shard.sessions id))

let shard_stats t =
  Shard.mapi t.shards (fun _ shard ->
      { shard.st with live = Hashtbl.length shard.sessions })

let stats t =
  List.fold_left add_stats zero_stats (shard_stats t)
