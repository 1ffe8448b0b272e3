(* Paged relation store.

   Record stream ('D' = dict entry, 'R' = row):

     'D' tag value                    value: 0/1 = bool, 2 = int
                                      (zigzag varint), 3 = float
                                      (8 bytes IEEE LE), 4 = str
                                      (varint length + bytes)
     'R' cell*                        cell: varint k — 0 = NULL,
                                      1 = NaN (+ 8 bytes IEEE bits),
                                      k >= 2 = store code k - 2

   Store codes are assigned by order of appearance in the stream,
   which is row-major first-sight order — the same order a shared
   Dict.code scan would intern them in.  That equality is what makes
   Dict.iter_encoded's translation-table fast path produce the exact
   shared code space of the in-memory scan, and hence byte-identical
   universes (test/test_storage.ml asserts this differentially).

   NaN keeps its IEEE bits inline so fingerprints — which hash float
   bits — survive the round-trip bit-for-bit.

   Meta blob: "JQIR1" + varint |name| + name + varint ncols +
   (varint |col| + col + ty byte)*.

   Single-writer by design: no latch here (the Vecs below are only
   mutated by appends); concurrent reads after loading are safe — the
   buffer pool serializes page access. *)

module Value = Jqi_relational.Value
module Tuple = Jqi_relational.Tuple
module Schema = Jqi_relational.Schema
module Relation = Jqi_relational.Relation
module Csv = Jqi_relational.Csv
module Vec = Jqi_util.Vec

(* Interning is by *representation*: floats compare by their IEEE bits
   (so 0.0 and -0.0 keep distinct codes and decoded rows fingerprint
   bit-for-bit), everything else by Value.equal.  Join semantics are
   not in play here — Dict.iter_encoded's translation table collapses
   IEEE-equal floats onto one Dict code, so universes still agree with
   the in-memory scan. *)
module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal a b =
    match (a, b) with
    | Value.Float x, Value.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | (Value.Null | Value.Bool _ | Value.Int _ | Value.Str _ | Value.Float _), _
      ->
        Value.equal a b

  let hash = function
    | Value.Float f ->
        (Hashtbl.hash (Int64.bits_of_float f) [@lint.allow "R1"])
    | (Value.Null | Value.Bool _ | Value.Int _ | Value.Str _) as v ->
        Value.hash v
end)

type t = {
  heap : Heap.t;
  name : string;
  schema : Schema.t;
  values : Value.t Vec.t; (* store code -> value *)
  code_of : int VH.t; (* value -> store code *)
  rids : int Vec.t; (* row index -> heap rid *)
  ebuf : Buffer.t; (* append scratch: row record *)
  dbuf : Buffer.t; (* append scratch: dict record *)
}

let heap t = t.heap
let pool t = Heap.pool t.heap
let path t = Pager.path (Buffer_pool.pager (pool t))
let row_count t = Vec.length t.rids
let distinct_values t = Vec.length t.values

(* --- varints (LEB128) and zigzag --- *)

let add_varint buf n =
  let n = ref n in
  let continue_ = ref true in
  while !continue_ do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_uint8 buf b;
      continue_ := false
    end
    else Buffer.add_uint8 buf (b lor 0x80)
  done

let read_varint s pos =
  let n = ref 0 and shift = ref 0 and continue_ = ref true in
  while !continue_ do
    if !pos >= String.length s then
      raise (Pager.Bad_file "Relstore: truncated varint");
    let b = Char.code s.[!pos] in
    incr pos;
    n := !n lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue_ := false
  done;
  !n

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

let add_f64 buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let read_f64 s pos =
  if !pos + 8 > String.length s then
    raise (Pager.Bad_file "Relstore: truncated float");
  let f = Int64.float_of_bits (String.get_int64_le s !pos) in
  pos := !pos + 8;
  f

(* --- value codec ('D' payload) --- *)

let add_value buf v =
  match v with
  | Value.Bool false -> Buffer.add_uint8 buf 0
  | Value.Bool true -> Buffer.add_uint8 buf 1
  | Value.Int i ->
      Buffer.add_uint8 buf 2;
      add_varint buf (zigzag i)
  | Value.Float f ->
      Buffer.add_uint8 buf 3;
      add_f64 buf f
  | Value.Str s ->
      Buffer.add_uint8 buf 4;
      add_varint buf (String.length s);
      Buffer.add_string buf s
  | Value.Null -> invalid_arg "Relstore: NULL is never interned"

let read_value s pos =
  if !pos >= String.length s then
    raise (Pager.Bad_file "Relstore: truncated value");
  let tag = Char.code s.[!pos] in
  incr pos;
  match tag with
  | 0 -> Value.Bool false
  | 1 -> Value.Bool true
  | 2 -> Value.Int (unzigzag (read_varint s pos))
  | 3 -> Value.Float (read_f64 s pos)
  | 4 ->
      let len = read_varint s pos in
      if !pos + len > String.length s then
        raise (Pager.Bad_file "Relstore: truncated string value");
      let v = Value.Str (String.sub s !pos len) in
      pos := !pos + len;
      v
  | n -> raise (Pager.Bad_file (Printf.sprintf "Relstore: bad value tag %d" n))

(* --- meta blob --- *)

let meta_magic = "JQIR1"

let ty_byte ty =
  match ty with
  | Value.TInt -> 0
  | Value.TFloat -> 1
  | Value.TBool -> 2
  | Value.TString -> 3

let ty_of_byte = function
  | 0 -> Value.TInt
  | 1 -> Value.TFloat
  | 2 -> Value.TBool
  | 3 -> Value.TString
  | n -> raise (Pager.Bad_file (Printf.sprintf "Relstore: bad type byte %d" n))

let encode_meta ~name schema =
  let buf = Buffer.create 128 in
  Buffer.add_string buf meta_magic;
  add_varint buf (String.length name);
  Buffer.add_string buf name;
  let cols = Schema.columns schema in
  add_varint buf (List.length cols);
  List.iter
    (fun (c : Schema.column) ->
      add_varint buf (String.length c.name);
      Buffer.add_string buf c.name;
      Buffer.add_uint8 buf (ty_byte c.ty))
    cols;
  Buffer.contents buf

let decode_meta blob =
  let n = String.length blob in
  if n < String.length meta_magic
     || not (String.equal (String.sub blob 0 (String.length meta_magic)) meta_magic)
  then raise (Pager.Bad_file "Relstore: missing store meta");
  let pos = ref (String.length meta_magic) in
  let read_str () =
    let len = read_varint blob pos in
    if !pos + len > n then raise (Pager.Bad_file "Relstore: truncated meta");
    let s = String.sub blob !pos len in
    pos := !pos + len;
    s
  in
  let name = read_str () in
  let ncols = read_varint blob pos in
  let cols =
    List.init ncols (fun _ ->
        let cname = read_str () in
        if !pos >= n then raise (Pager.Bad_file "Relstore: truncated meta");
        let ty = ty_of_byte (Char.code blob.[!pos]) in
        incr pos;
        Schema.column cname ty)
  in
  (name, Schema.of_columns cols)

(* --- store lifecycle --- *)

let create ?(page_size = Page.default_size) ?(pool_frames = 64) ~path ~name
    schema =
  let heap = Heap.create_file ~page_size ~pool_frames path in
  Heap.set_meta heap (encode_meta ~name schema);
  {
    heap;
    name;
    schema;
    values = Vec.create ();
    code_of = VH.create 1024;
    rids = Vec.create ();
    ebuf = Buffer.create 256;
    dbuf = Buffer.create 256;
  }

let open_file ?(pool_frames = 64) path =
  let heap = Heap.open_file ~pool_frames path in
  let name, schema = decode_meta (Heap.meta heap) in
  let t =
    {
      heap;
      name;
      schema;
      values = Vec.create ();
      code_of = VH.create 1024;
      rids = Vec.create ();
      ebuf = Buffer.create 256;
      dbuf = Buffer.create 256;
    }
  in
  Heap.iter heap (fun rid record ->
      if String.length record = 0 then
        raise (Pager.Bad_file "Relstore: empty record");
      match record.[0] with
      | 'D' ->
          let pos = ref 1 in
          let v = read_value record pos in
          VH.replace t.code_of v (Vec.length t.values);
          Vec.push t.values v
      | 'R' -> Vec.push t.rids rid
      | c ->
          raise
            (Pager.Bad_file (Printf.sprintf "Relstore: bad record tag %C" c)));
  t

let intern t v =
  match VH.find_opt t.code_of v with
  | Some c -> c
  | None ->
      Buffer.clear t.dbuf;
      Buffer.add_char t.dbuf 'D';
      add_value t.dbuf v;
      ignore (Heap.append t.heap (Buffer.contents t.dbuf));
      let c = Vec.length t.values in
      VH.add t.code_of v c;
      Vec.push t.values v;
      c

let append_row t row =
  if not (Int.equal (Tuple.arity row) (Schema.arity t.schema)) then
    invalid_arg
      (Printf.sprintf "Relstore %s: row arity %d, schema arity %d" t.name
         (Tuple.arity row) (Schema.arity t.schema));
  Buffer.clear t.ebuf;
  Buffer.add_char t.ebuf 'R';
  Array.iter
    (fun v ->
      match v with
      | Value.Null -> add_varint t.ebuf 0
      | Value.Float f when Float.is_nan f ->
          add_varint t.ebuf 1;
          add_f64 t.ebuf f
      | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _ ->
          add_varint t.ebuf (intern t v + 2))
    row;
  let rid = Heap.append t.heap (Buffer.contents t.ebuf) in
  Vec.push t.rids rid

(* --- row decoding --- *)

let decode_row t record =
  let arity = Schema.arity t.schema in
  if String.length record = 0 || not (Char.equal record.[0] 'R') then
    raise (Pager.Bad_file "Relstore: expected a row record");
  let pos = ref 1 in
  Array.init arity (fun _ ->
      let k = read_varint record pos in
      if k = 0 then Value.Null
      else if k = 1 then Value.Float (read_f64 record pos)
      else Vec.get t.values (k - 2))

let get_row t i = decode_row t (Heap.get t.heap (Vec.get t.rids i))

let iter_rows t f =
  let i = ref 0 in
  Heap.iter t.heap (fun _rid record ->
      if String.length record > 0 && Char.equal record.[0] 'R' then begin
        f !i (decode_row t record);
        incr i
      end)

(* Stream store codes per row into a reused buffer: -1 for NULL/NaN,
   the store code otherwise.  This is Backend.coded.iter_codes. *)
let iter_codes t f =
  let arity = Schema.arity t.schema in
  let buf = Array.make arity (-1) in
  let i = ref 0 in
  Heap.iter t.heap (fun _rid record ->
      if String.length record > 0 && Char.equal record.[0] 'R' then begin
        let pos = ref 1 in
        for k = 0 to arity - 1 do
          let c = read_varint record pos in
          if c = 0 then buf.(k) <- -1
          else if c = 1 then begin
            ignore (read_f64 record pos);
            buf.(k) <- -1
          end
          else buf.(k) <- c - 2
        done;
        f !i buf;
        incr i
      end)

(* Churn: tombstone the removed rows' heap records ([removed] holds
   sorted pre-delta row indexes), drop their rids from the row-id
   table, then append the added rows at the heap tail.  Tail-only
   appends keep physical order = logical order, so a reopen scan
   rebuilds exactly this row sequence: survivors in their old order,
   then the adds.  'D' records are never deleted — store codes are
   minted forever, like [Dict] codes. *)
let apply_delta t ~adds ~removed =
  Array.iter (fun i -> Heap.delete t.heap (Vec.get t.rids i)) removed;
  if Array.length removed > 0 then begin
    let old = Vec.to_array t.rids in
    Vec.clear t.rids;
    let j = ref 0 in
    Array.iteri
      (fun i rid ->
        if !j < Array.length removed && Int.equal removed.(!j) i then incr j
        else Vec.push t.rids rid)
      old
  end;
  Array.iter (append_row t) adds;
  Heap.sync t.heap

let rec paged_backend t =
  let n = row_count t in
  {
    Relation.Backend.n_rows = n;
    get_row = (fun i -> get_row t i);
    iter_rows = (fun f -> iter_rows t f);
    coded =
      {
        Relation.Backend.distinct = distinct_values t;
        value = (fun c -> Vec.get t.values c);
        iter_codes = (fun f -> iter_codes t f);
      };
    describe = "paged:" ^ path t;
    apply_delta =
      (fun ~adds ~removed ->
        apply_delta t ~adds ~removed;
        paged_backend t);
  }

let relation t =
  Relation.of_paged ~name:t.name ~schema:t.schema (paged_backend t)

let sync t = Heap.sync t.heap
let close t = Heap.close t.heap

(* --- backend selection & loaders --- *)

type backend = Mem | Paged of { frames : int; dir : string option }

let default_frames = 256

let backend_of_string ~frames s =
  match String.lowercase_ascii s with
  | "mem" | "memory" -> Some Mem
  | "paged" | "disk" -> Some (Paged { frames; dir = None })
  | _ -> None

let load_csv ?sep ?schema ?page_size ?pool_frames ~dest ~name path =
  let store, _schema =
    Csv.load_into ?sep ?schema path
      ~init:(fun sch -> create ?page_size ?pool_frames ~path:dest ~name sch)
      ~push:append_row
  in
  sync store;
  store

let of_relation ?page_size ?pool_frames ~dest rel =
  let store =
    create ?page_size ?pool_frames ~path:dest ~name:(Relation.name rel)
      (Relation.schema rel)
  in
  Relation.iter (append_row store) rel;
  sync store;
  store

let load_csv_relation ?sep ?schema ~backend ~name path =
  match backend with
  | Mem -> Csv.load_relation ?sep ~name ?schema path
  | Paged { frames; dir } ->
      let dest =
        match dir with
        | Some d -> Filename.concat d (name ^ ".jqh")
        | None -> Filename.temp_file ("jqi_" ^ name ^ "_") ".jqh"
      in
      relation (load_csv ?sep ?schema ~pool_frames:frames ~dest ~name path)
