(* Session persistence: save a labeling session to JSON and resume it
   later against the same relations.

   Examples are stored by representative *tuple* (row-index vector), not
   by class id, so a session survives any change in class numbering — it
   only assumes the underlying relations (and hence each row's signature)
   are unchanged.  Loading replays the labels through [State.label], so a
   file inconsistent with the instance is rejected exactly like a lying
   user (Algorithm 1 lines 6-7).

   Version history:
     v1  { version, examples }                      — examples as {"r","p"}
     v2  adds the optional fields the service layer needs to freeze a
         whole [Engine] session: the strategy name and the in-flight
         question (as a row-index pair).  v1 files still load — they
         simply carry neither.
     v3  examples and pending carry {"rows":[i,…]}, one row index per
         relation.  Every session writes v3, binary ones included; v1
         and v2 documents (binary only) still load, so every document
         produced by earlier builds resumes. *)

module Json = Jqi_util.Json
module Relation = Jqi_relational.Relation

exception Corrupt of string

exception
  Stale_label of {
    signature : Jqi_util.Bits.t;
    label : Sample.label option;
  }

let fail fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let version = 3

type loaded = {
  state : State.t;
  strategy : string option;
  pending : int array option;
  pending_sig : Jqi_util.Bits.t option;
}

let label_to_string = function
  | Sample.Positive -> "+"
  | Sample.Negative -> "-"

let label_of_string = function
  | "+" -> Sample.Positive
  | "-" -> Sample.Negative
  | s -> fail "bad label %S" s

let relations_of universe =
  match Universe.relations universe with
  | Some rels -> rels
  | None -> fail "session requires a universe built from relations"

let signature_of universe rels rows =
  Tsig.of_ktuples (Universe.omega universe)
    (Array.mapi (fun d i -> Relation.row rels.(d) i) rows)

(* The additive "sig" field (since the churn pipeline): a signature as
   its sorted set-bit positions.  Unlike row indexes, signatures survive
   churn-induced row renumbering, so a loader that prefers them can thaw
   a session saved against a pre-delta instance — or detect, with a
   typed error, that a labeled class no longer exists. *)
let sig_field s = ("sig", Json.List (List.map Json.int (Jqi_util.Bits.elements s)))

let to_json ?strategy ?pending universe state =
  let rels = relations_of universe in
  let rows_fields rep =
    [ ("rows", Json.List (Array.to_list (Array.map Json.int rep))) ]
  in
  let example (cls, label) =
    Json.Obj
      (rows_fields (Universe.cls universe cls).Universe.rep
      @ [
          sig_field (Universe.signature universe cls);
          ("label", Json.Str (label_to_string label));
        ])
  in
  Json.Obj
    (List.concat
       [
         [ ("version", Json.int version) ];
         (match strategy with
         | Some s -> [ ("strategy", Json.Str s) ]
         | None -> []);
         (match pending with
         | Some rep ->
             let fields =
               rows_fields rep
               @ [ sig_field (signature_of universe rels rep) ]
             in
             [ ("pending", Json.Obj fields) ]
         | None -> []);
         [ ("examples", Json.List (List.map example (State.history state))) ];
       ])

let check_row rels d i =
  if i < 0 || i >= Relation.cardinality rels.(d) then
    fail "row %d out of range for %s" i (Relation.name rels.(d));
  i

(* A row-index field: {"r":i,"p":j} (v1/v2, binary only) or
   {"rows":[i,…]} (v3), range-checked against the relations. *)
let row_vector ~what ~v rels json =
  if v >= 3 then
    match Json.member "rows" json with
    | Some (Json.List l) ->
        let rows = Array.of_list l in
        if not (Int.equal (Array.length rows) (Array.length rels)) then
          fail "%s needs one row index per relation" what;
        Array.mapi
          (fun d j ->
            match Json.to_int j with
            | Some i -> check_row rels d i
            | None -> fail "%s has a non-integer row index" what)
          rows
    | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
    | None ->
        fail "%s missing rows" what
  else begin
    if not (Int.equal (Array.length rels) 2) then
      fail "%s: v%d documents only describe binary sessions" what v;
    let field name =
      match Option.bind (Json.member name json) Json.to_int with
      | Some i -> i
      | None -> fail "%s missing %s" what name
    in
    [| check_row rels 0 (field "r"); check_row rels 1 (field "p") |]
  end

(* The "sig" member of an example/pending object, when present:
   a list of set-bit positions in [0, |Ω|). *)
let sig_of_member ~what universe json =
  match Json.member "sig" json with
  | None | Some Json.Null -> None
  | Some (Json.List l) ->
      let width = Omega.width (Universe.omega universe) in
      Some
        (Jqi_util.Bits.of_list width
           (List.map
              (fun j ->
                match Json.to_int j with
                | Some b when b >= 0 && b < width -> b
                | Some b -> fail "%s sig bit %d out of range" what b
                | None -> fail "%s sig has a non-integer bit" what)
              l))
  | Some (Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _) ->
      fail "%s sig must be a list of bit positions" what

let of_json_full universe json =
  let v =
    match Option.bind (Json.member "version" json) Json.to_int with
    | Some v when v >= 1 && v <= version -> v
    | Some v -> fail "unsupported session version %d (this build reads 1-%d)" v version
    | None -> fail "missing version"
  in
  let examples =
    match Json.member "examples" json with
    | Some (Json.List l) -> l
    | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.Obj _)
    | None ->
        fail "missing examples array"
  in
  let state = State.create universe in
  let rels = relations_of universe in
  let pp_rows rows =
    String.concat "," (Array.to_list (Array.map string_of_int rows))
  in
  List.iter
    (fun ex ->
      let label =
        match Json.member "label" ex with
        | Some (Json.Str s) -> label_of_string s
        | Some (Json.Null | Json.Bool _ | Json.Num _ | Json.List _ | Json.Obj _)
        | None ->
            fail "example missing label"
      in
      (* Prefer the signature when persisted: it survives churn-induced
         row renumbering, and its absence from the universe is a typed
         staleness (the labeled class was retired), not corruption. *)
      let signature, from_sig, describe =
        match sig_of_member ~what:"example" universe ex with
        | Some s -> (s, true, fun () -> Jqi_util.Bits.to_string s)
        | None ->
            let rows = row_vector ~what:"example" ~v rels ex in
            (signature_of universe rels rows, false, fun () -> pp_rows rows)
      in
      match Universe.find_class universe signature with
      | None ->
          if from_sig then raise (Stale_label { signature; label = Some label })
          else fail "tuple (%s) has no class in this universe" (describe ())
      | Some cls -> (
          match State.certain_label state cls with
          | Some certain when certain = label ->
              (* Implied by earlier examples; idempotent. *)
              ()
          | _ -> (
              try State.label state cls label
              with State.Inconsistent _ ->
                fail "example (%s) contradicts earlier labels" (describe ()))))
    examples;
  let strategy =
    if v < 2 then None
    else
      match Json.member "strategy" json with
      | Some (Json.Str s) -> Some s
      | None | Some Json.Null -> None
      | Some (Json.Bool _ | Json.Num _ | Json.List _ | Json.Obj _) ->
          fail "strategy must be a string"
  in
  let pending, pending_sig =
    if v < 2 then (None, None)
    else
      match Json.member "pending" json with
      | Some (Json.Obj _ as obj) -> (
          match sig_of_member ~what:"pending" universe obj with
          | Some s ->
              (* With a signature to anchor on, stale row indexes (the
                 rows may have been renumbered away) are tolerable. *)
              let rows =
                try Some (row_vector ~what:"pending" ~v rels obj)
                with Corrupt _ -> None
              in
              (rows, Some s)
          | None -> (Some (row_vector ~what:"pending" ~v rels obj), None))
      | None | Some Json.Null -> (None, None)
      | Some (Json.Bool _ | Json.Num _ | Json.Str _ | Json.List _) ->
          (fail "pending must be an object", None)
  in
  { state; strategy; pending; pending_sig }

let of_json universe json = (of_json_full universe json).state

(* R11 waiver (here and [parse_file]): the document codec is sans-IO
   ([to_json]/[of_json]); these two are the file-at-the-edge convenience
   wrappers the CLI uses, kept beside the codec so the path format has
   one owner.  Server code never calls them. *)
let save ?strategy ?pending path universe state =
  Json.save_file path (to_json ?strategy ?pending universe state)
[@@lint.allow "R11"]

let parse_file path =
  match Json.load_file path with
  | json -> json
  | exception Json.Parse_error { position; message } ->
      fail "malformed JSON at offset %d: %s" position message
[@@lint.allow "R11"]

let load path universe = of_json universe (parse_file path)
let load_full path universe = of_json_full universe (parse_file path)

(* The class of a persisted pending question in [universe], when it
   still names a question worth re-asking.  A persisted signature is
   authoritative: it survives row renumbering, and a signature with no
   class is the typed staleness of a question whose tuples were all
   deleted — unlike dangling rows, which are silently dropped (legacy
   documents cannot distinguish churn from corruption). *)
let pending_class_rows universe state = function
  | None -> None
  | Some rows -> (
      match Universe.relations universe with
      | None -> None
      | Some rels -> (
          let ok = ref (Int.equal (Array.length rows) (Array.length rels)) in
          if !ok then
            Array.iteri
              (fun d i ->
                if i < 0 || i >= Relation.cardinality rels.(d) then ok := false)
              rows;
          if not !ok then None
          else
            match
              Universe.find_class universe (signature_of universe rels rows)
            with
            | Some cls when State.informative state cls -> Some cls
            | Some _ | None -> None))

let pending_class ?signature universe state rows =
  match signature with
  | Some s -> (
      match Universe.find_class universe s with
      | Some cls when State.informative state cls -> Some cls
      | Some _ -> None
      | None -> raise (Stale_label { signature = s; label = None }))
  | None -> pending_class_rows universe state rows
