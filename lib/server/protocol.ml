(* The wire codec.  Deliberately boring: every frame is a flat JSON
   object, every field is read through total accessors, and every way a
   line can be wrong maps to an [Error] frame rather than an exception —
   a misbehaving client must not be able to kill the serve loop. *)

module Json = Jqi_util.Json
module Sample = Jqi_core.Sample

let version = 1

let negotiate versions =
  match List.filter (fun v -> v >= 1 && v <= version) versions with
  | [] -> None
  | vs -> Some (List.fold_left max 1 vs)

type request =
  | Hello of { versions : int list }
  | Load of { name : string option; path : string }
  | Open_session of { r : string; p : string; strategy : string }
  | Ask of { session : string }
  | Tell of { session : string; label : Sample.label }
  | Save of { session : string }
  | Resume of {
      r : string;
      p : string;
      strategy : string option;
      doc : Json.t;
    }
  | Open_kary of { relations : string list; strategy : string }
  | Resume_kary of {
      relations : string list;
      strategy : string option;
      doc : Json.t;
    }
  | Delta of {
      relation : string;
      insert : string list list;  (* rows to add, as CSV-style cells *)
      delete : string list list;  (* rows to remove, matched by value *)
    }
  | Close of { session : string }
  | Stats

type question = {
  q_session : string;
  q_class : int;
  q_r_row : int;
  q_p_row : int;
  q_r_cells : string list;
  q_p_cells : string list;
}

type kquestion = {
  k_session : string;
  k_class : int;
  k_rows : int list;
  k_cells : string list list;
}

type response =
  | Welcome of { version : int }
  | Loaded of { name : string; rows : int }
  | Opened of {
      session : string;
      classes : int;
      omega_width : int;
      cache_hit : bool;
    }
  | Question of question
  | Kquestion of kquestion
  | Done of {
      session : string;
      predicate : (string * string) list;
      n_interactions : int;
    }
  | Saved of { session : string; doc : Json.t }
  | Delta_applied of {
      d_relation : string;
      d_added : int;
      d_removed : int;
      d_cache_patched : int;
      d_cache_dropped : int;
      d_recertified : string list;  (* session ids carried over *)
      d_stale : (string * string) list;  (* (session id, reason) *)
    }
  | Closed of { session : string }
  | Stats_reply of {
      sessions : int;
      relations : string list;
      cache_hits : int;
      cache_misses : int;
      top_heap_words : int option;  (* absent from older servers' replies *)
    }
  | Error of { code : string; message : string }

(* No [Value]/[Tuple] in sight, so structural equality is exact here —
   frames are strings, ints, bools and Json trees. *)
let equal_request (a : request) (b : request) = a = b
let equal_response (a : response) (b : response) = a = b

(* ---- field accessors, all total ---- *)

let str_field name json =
  match Json.member name json with
  | Some (Json.Str s) -> Some s
  | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.List _ | Json.Obj _)
  | None ->
      None

let int_field name json = Option.bind (Json.member name json) Json.to_int

let bool_field name json =
  match Json.member name json with
  | Some (Json.Bool b) -> Some b
  | Some (Json.Null | Json.Num _ | Json.Str _ | Json.List _ | Json.Obj _)
  | None ->
      None

let int_list_field name json =
  match Json.member name json with
  | Some (Json.List l) ->
      let ints = List.filter_map Json.to_int l in
      if List.compare_lengths ints l = 0 then Some ints else None
  | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
  | None ->
      None

let str_list_field name json =
  match Json.member name json with
  | Some (Json.List l) ->
      let strs =
        List.filter_map
          (function
            | Json.Str s -> Some s
            | Json.Null | Json.Bool _ | Json.Num _ | Json.List _ | Json.Obj _
              ->
                None)
          l
      in
      if List.compare_lengths strs l = 0 then Some strs else None
  | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
  | None ->
      None

(* A list of string lists — the per-relation cell rows of a kquestion. *)
let str_list_list_field name json =
  match Json.member name json with
  | Some (Json.List l) ->
      let row = function
        | Json.List cells ->
            let strs =
              List.filter_map
                (function
                  | Json.Str s -> Some s
                  | Json.Null | Json.Bool _ | Json.Num _ | Json.List _
                  | Json.Obj _ ->
                      None)
                cells
            in
            if List.compare_lengths strs cells = 0 then Some strs else None
        | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _ ->
            None
      in
      let rows = List.filter_map row l in
      if List.compare_lengths rows l = 0 then Some rows else None
  | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
  | None ->
      None

let label_to_string = function
  | Sample.Positive -> "+"
  | Sample.Negative -> "-"

let label_of_string = function
  | "+" -> Some Sample.Positive
  | "-" -> Some Sample.Negative
  | _ -> None

(* ---- encoding ---- *)

let frame ~id fields = Json.Obj (("v", Json.int version) :: ("id", Json.int id) :: fields)

let request_fields = function
  | Hello { versions } ->
      [
        ("op", Json.Str "hello");
        ("versions", Json.List (List.map Json.int versions));
      ]
  | Load { name; path } ->
      List.concat
        [
          [ ("op", Json.Str "load"); ("path", Json.Str path) ];
          (match name with
          | Some n -> [ ("name", Json.Str n) ]
          | None -> []);
        ]
  | Open_session { r; p; strategy } ->
      [
        ("op", Json.Str "open");
        ("r", Json.Str r);
        ("p", Json.Str p);
        ("strategy", Json.Str strategy);
      ]
  | Ask { session } -> [ ("op", Json.Str "ask"); ("session", Json.Str session) ]
  | Tell { session; label } ->
      [
        ("op", Json.Str "tell");
        ("session", Json.Str session);
        ("label", Json.Str (label_to_string label));
      ]
  | Save { session } ->
      [ ("op", Json.Str "save"); ("session", Json.Str session) ]
  | Resume { r; p; strategy; doc } ->
      List.concat
        [
          [ ("op", Json.Str "resume"); ("r", Json.Str r); ("p", Json.Str p) ];
          (match strategy with
          | Some s -> [ ("strategy", Json.Str s) ]
          | None -> []);
          [ ("doc", doc) ];
        ]
  | Open_kary { relations; strategy } ->
      [
        ("op", Json.Str "open_kary");
        ("relations", Json.List (List.map (fun n -> Json.Str n) relations));
        ("strategy", Json.Str strategy);
      ]
  | Resume_kary { relations; strategy; doc } ->
      List.concat
        [
          [
            ("op", Json.Str "resume_kary");
            ( "relations",
              Json.List (List.map (fun n -> Json.Str n) relations) );
          ];
          (match strategy with
          | Some s -> [ ("strategy", Json.Str s) ]
          | None -> []);
          [ ("doc", doc) ];
        ]
  | Delta { relation; insert; delete } ->
      let rows rs =
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun c -> Json.Str c) row))
             rs)
      in
      [
        ("op", Json.Str "delta");
        ("relation", Json.Str relation);
        ("insert", rows insert);
        ("delete", rows delete);
      ]
  | Close { session } ->
      [ ("op", Json.Str "close"); ("session", Json.Str session) ]
  | Stats -> [ ("op", Json.Str "stats") ]

let encode_request ~id request = Json.to_string (frame ~id (request_fields request))

let response_fields = function
  | Welcome { version = v } ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "welcome");
        ("version", Json.int v);
      ]
  | Loaded { name; rows } ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "loaded");
        ("name", Json.Str name);
        ("rows", Json.int rows);
      ]
  | Opened { session; classes; omega_width; cache_hit } ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "opened");
        ("session", Json.Str session);
        ("classes", Json.int classes);
        ("omega_width", Json.int omega_width);
        ("cache_hit", Json.Bool cache_hit);
      ]
  | Question q ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "question");
        ("session", Json.Str q.q_session);
        ("class", Json.int q.q_class);
        ("r_row", Json.int q.q_r_row);
        ("p_row", Json.int q.q_p_row);
        ("r_cells", Json.List (List.map (fun c -> Json.Str c) q.q_r_cells));
        ("p_cells", Json.List (List.map (fun c -> Json.Str c) q.q_p_cells));
      ]
  | Kquestion k ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "kquestion");
        ("session", Json.Str k.k_session);
        ("class", Json.int k.k_class);
        ("rows", Json.List (List.map Json.int k.k_rows));
        ( "cells",
          Json.List
            (List.map
               (fun row ->
                 Json.List (List.map (fun c -> Json.Str c) row))
               k.k_cells) );
      ]
  | Done { session; predicate; n_interactions } ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "done");
        ("session", Json.Str session);
        ( "predicate",
          Json.List
            (List.map
               (fun (a, b) ->
                 Json.Obj [ ("r", Json.Str a); ("p", Json.Str b) ])
               predicate) );
        ("n_interactions", Json.int n_interactions);
      ]
  | Saved { session; doc } ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "saved");
        ("session", Json.Str session);
        ("doc", doc);
      ]
  | Delta_applied d ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "delta_applied");
        ("relation", Json.Str d.d_relation);
        ("added", Json.int d.d_added);
        ("removed", Json.int d.d_removed);
        ("cache_patched", Json.int d.d_cache_patched);
        ("cache_dropped", Json.int d.d_cache_dropped);
        ( "recertified",
          Json.List (List.map (fun s -> Json.Str s) d.d_recertified) );
        ( "stale",
          Json.List
            (List.map
               (fun (id, reason) ->
                 Json.Obj
                   [ ("session", Json.Str id); ("reason", Json.Str reason) ])
               d.d_stale) );
      ]
  | Closed { session } ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "closed");
        ("session", Json.Str session);
      ]
  | Stats_reply { sessions; relations; cache_hits; cache_misses; top_heap_words }
    ->
      [
        ("ok", Json.Bool true);
        ("op", Json.Str "stats");
        ("sessions", Json.int sessions);
        ("relations", Json.List (List.map (fun n -> Json.Str n) relations));
        ("cache_hits", Json.int cache_hits);
        ("cache_misses", Json.int cache_misses);
      ]
      @ Option.fold ~none:[]
          ~some:(fun w -> [ ("top_heap_words", Json.int w) ])
          top_heap_words
  | Error { code; message } ->
      [
        ("ok", Json.Bool false);
        ("op", Json.Str "error");
        ("code", Json.Str code);
        ("message", Json.Str message);
      ]

let encode_response ~id response =
  Json.to_string (frame ~id (response_fields response))

(* ---- decoding ---- *)

let err ~id code fmt =
  Printf.ksprintf
    (fun message -> Stdlib.Error (id, Error { code; message }))
    fmt

let parse_frame line =
  match Json.of_string line with
  | exception Json.Parse_error { position; message } ->
      Stdlib.Error (0, Error
        {
          code = "parse";
          message = Printf.sprintf "bad JSON at %d: %s" position message;
        })
  | (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.List _) as j ->
      Stdlib.Error (0, Error
        {
          code = "parse";
          message =
            Printf.sprintf "frame must be an object, got %s"
              (Json.to_string j);
        })
  | Json.Obj _ as json -> (
      let id = match int_field "id" json with Some i -> i | None -> 0 in
      match int_field "v" json with
      | Some v when v = version -> Stdlib.Ok (id, json)
      | Some v ->
          err ~id "version" "unsupported protocol version %d (speak %d)" v
            version
      | None -> err ~id "version" "frame missing v")

let required ~id ~op field = function
  | Some x -> Stdlib.Ok x
  | None -> err ~id "malformed" "%s frame missing %s" op field

let ( let* ) r f = match r with Stdlib.Ok x -> f x | Stdlib.Error _ as e -> e

let decode_request line =
  let* id, json = parse_frame line in
  let* op = required ~id ~op:"request" "op" (str_field "op" json) in
  match op with
  | "hello" ->
      let* versions =
        required ~id ~op "versions" (int_list_field "versions" json)
      in
      Stdlib.Ok (id, Hello { versions })
  | "load" ->
      let* path = required ~id ~op "path" (str_field "path" json) in
      Stdlib.Ok (id, Load { name = str_field "name" json; path })
  | "open" ->
      let* r = required ~id ~op "r" (str_field "r" json) in
      let* p = required ~id ~op "p" (str_field "p" json) in
      let* strategy = required ~id ~op "strategy" (str_field "strategy" json) in
      Stdlib.Ok (id, Open_session { r; p; strategy })
  | "ask" ->
      let* session = required ~id ~op "session" (str_field "session" json) in
      Stdlib.Ok (id, Ask { session })
  | "tell" ->
      let* session = required ~id ~op "session" (str_field "session" json) in
      let* raw = required ~id ~op "label" (str_field "label" json) in
      let* label =
        match label_of_string raw with
        | Some l -> Stdlib.Ok l
        | None -> err ~id "malformed" "tell label must be \"+\" or \"-\", got %S" raw
      in
      Stdlib.Ok (id, Tell { session; label })
  | "save" ->
      let* session = required ~id ~op "session" (str_field "session" json) in
      Stdlib.Ok (id, Save { session })
  | "resume" ->
      let* r = required ~id ~op "r" (str_field "r" json) in
      let* p = required ~id ~op "p" (str_field "p" json) in
      let* doc = required ~id ~op "doc" (Json.member "doc" json) in
      Stdlib.Ok (id, Resume { r; p; strategy = str_field "strategy" json; doc })
  | "open_kary" ->
      let* relations =
        required ~id ~op "relations" (str_list_field "relations" json)
      in
      let* strategy = required ~id ~op "strategy" (str_field "strategy" json) in
      Stdlib.Ok (id, Open_kary { relations; strategy })
  | "resume_kary" ->
      let* relations =
        required ~id ~op "relations" (str_list_field "relations" json)
      in
      let* doc = required ~id ~op "doc" (Json.member "doc" json) in
      Stdlib.Ok
        (id, Resume_kary { relations; strategy = str_field "strategy" json; doc })
  | "delta" ->
      let* relation = required ~id ~op "relation" (str_field "relation" json) in
      (* Both row lists are optional on the wire; a missing field is an
         empty batch side, but a malformed present one is an error. *)
      let rows field =
        match Json.member field json with
        | None | Some Json.Null -> Stdlib.Ok []
        | Some
            (Json.Bool _ | Json.Num _ | Json.Str _ | Json.List _ | Json.Obj _)
          -> (
            match str_list_list_field field json with
            | Some rs -> Stdlib.Ok rs
            | None ->
                err ~id "malformed" "delta %s must be a list of cell rows"
                  field)
      in
      let* insert = rows "insert" in
      let* delete = rows "delete" in
      Stdlib.Ok (id, Delta { relation; insert; delete })
  | "close" ->
      let* session = required ~id ~op "session" (str_field "session" json) in
      Stdlib.Ok (id, Close { session })
  | "stats" -> Stdlib.Ok (id, Stats)
  | other -> err ~id "unsupported" "unknown op %S" other

let decode_response line =
  let fail fmt = Printf.ksprintf (fun m -> Stdlib.Error m) fmt in
  match Json.of_string line with
  | exception Json.Parse_error { position; message } ->
      fail "bad JSON at %d: %s" position message
  | (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.List _) as j ->
      fail "frame must be an object, got %s" (Json.to_string j)
  | Json.Obj _ as json -> (
      let id = match int_field "id" json with Some i -> i | None -> 0 in
      let str name =
        match str_field name json with
        | Some s -> Stdlib.Ok s
        | None -> fail "response missing %s" name
      in
      let int name =
        match int_field name json with
        | Some i -> Stdlib.Ok i
        | None -> fail "response missing %s" name
      in
      let* op = str "op" in
      match op with
      | "welcome" ->
          let* v = int "version" in
          Stdlib.Ok (id, Welcome { version = v })
      | "loaded" ->
          let* name = str "name" in
          let* rows = int "rows" in
          Stdlib.Ok (id, Loaded { name; rows })
      | "opened" ->
          let* session = str "session" in
          let* classes = int "classes" in
          let* omega_width = int "omega_width" in
          let* cache_hit =
            match bool_field "cache_hit" json with
            | Some b -> Stdlib.Ok b
            | None -> fail "response missing cache_hit"
          in
          Stdlib.Ok (id, Opened { session; classes; omega_width; cache_hit })
      | "question" ->
          let* q_session = str "session" in
          let* q_class = int "class" in
          let* q_r_row = int "r_row" in
          let* q_p_row = int "p_row" in
          let* q_r_cells =
            match str_list_field "r_cells" json with
            | Some l -> Stdlib.Ok l
            | None -> fail "response missing r_cells"
          in
          let* q_p_cells =
            match str_list_field "p_cells" json with
            | Some l -> Stdlib.Ok l
            | None -> fail "response missing p_cells"
          in
          Stdlib.Ok
            (id, Question { q_session; q_class; q_r_row; q_p_row; q_r_cells; q_p_cells })
      | "kquestion" ->
          let* k_session = str "session" in
          let* k_class = int "class" in
          let* k_rows =
            match int_list_field "rows" json with
            | Some l -> Stdlib.Ok l
            | None -> fail "response missing rows"
          in
          let* k_cells =
            match str_list_list_field "cells" json with
            | Some l -> Stdlib.Ok l
            | None -> fail "response missing cells"
          in
          Stdlib.Ok (id, Kquestion { k_session; k_class; k_rows; k_cells })
      | "done" ->
          let* session = str "session" in
          let* n_interactions = int "n_interactions" in
          let* predicate =
            match Json.member "predicate" json with
            | Some (Json.List l) ->
                let pairs =
                  List.filter_map
                    (fun pair ->
                      match (str_field "r" pair, str_field "p" pair) with
                      | Some a, Some b -> Some (a, b)
                      | (Some _ | None), (Some _ | None) -> None)
                    l
                in
                if List.compare_lengths pairs l = 0 then Stdlib.Ok pairs
                else fail "done predicate entries must be {r,p} objects"
            | Some
                (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
            | None ->
                fail "response missing predicate"
          in
          Stdlib.Ok (id, Done { session; predicate; n_interactions })
      | "saved" ->
          let* session = str "session" in
          let* doc =
            match Json.member "doc" json with
            | Some d -> Stdlib.Ok d
            | None -> fail "response missing doc"
          in
          Stdlib.Ok (id, Saved { session; doc })
      | "delta_applied" ->
          let* d_relation = str "relation" in
          let* d_added = int "added" in
          let* d_removed = int "removed" in
          let* d_cache_patched = int "cache_patched" in
          let* d_cache_dropped = int "cache_dropped" in
          let* d_recertified =
            match str_list_field "recertified" json with
            | Some l -> Stdlib.Ok l
            | None -> fail "response missing recertified"
          in
          let* d_stale =
            match Json.member "stale" json with
            | Some (Json.List l) ->
                let pairs =
                  List.filter_map
                    (fun entry ->
                      match
                        (str_field "session" entry, str_field "reason" entry)
                      with
                      | Some s, Some r -> Some (s, r)
                      | (Some _ | None), (Some _ | None) -> None)
                    l
                in
                if List.compare_lengths pairs l = 0 then Stdlib.Ok pairs
                else fail "stale entries must be {session,reason} objects"
            | Some
                (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
            | None ->
                fail "response missing stale"
          in
          Stdlib.Ok
            ( id,
              Delta_applied
                {
                  d_relation;
                  d_added;
                  d_removed;
                  d_cache_patched;
                  d_cache_dropped;
                  d_recertified;
                  d_stale;
                } )
      | "closed" ->
          let* session = str "session" in
          Stdlib.Ok (id, Closed { session })
      | "stats" ->
          let* sessions = int "sessions" in
          let* cache_hits = int "cache_hits" in
          let* cache_misses = int "cache_misses" in
          let* relations =
            match str_list_field "relations" json with
            | Some l -> Stdlib.Ok l
            | None -> fail "response missing relations"
          in
          Stdlib.Ok
            ( id,
              Stats_reply
                {
                  sessions;
                  relations;
                  cache_hits;
                  cache_misses;
                  top_heap_words = int_field "top_heap_words" json;
                } )
      | "error" ->
          let* code = str "code" in
          let* message = str "message" in
          Stdlib.Ok (id, Error { code; message })
      | other -> fail "unknown response op %S" other)
