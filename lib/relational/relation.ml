(* A relation instance: a name, a schema and a row store.

   Rows live behind a storage backend: [Backend.Mem] is the original
   in-memory array; [Backend.Paged] is a closure record wired up by an
   out-of-core store (jqi.storage's Relstore) so that this module — and
   the whole sans-IO relational tier — never references the storage
   library or does IO itself.  Rows are stored in insertion order; set
   semantics, when an operator needs them, are applied explicitly
   ([distinct]).  The inference engine treats R and P as arrays so that
   a tuple of the Cartesian product is addressed by a pair of row
   indexes; a paged backend must therefore provide random access
   ([get_row]) as well as the streaming scan ([iter_rows]) the
   universe builder prefers. *)

module Backend = struct
  type coded = {
    distinct : int;
    value : int -> Value.t;
    iter_codes : (int -> int array -> unit) -> unit;
  }

  type paged = {
    n_rows : int;
    get_row : int -> Tuple.t;
    iter_rows : (int -> Tuple.t -> unit) -> unit;
    coded : coded;
    describe : string;
    apply_delta : adds:Tuple.t array -> removed:int array -> paged;
  }

  type t = Mem of Tuple.t array | Paged of paged

  let name = function Mem _ -> "mem" | Paged _ -> "paged"
end

type t = { name : string; schema : Schema.t; backend : Backend.t }

let create ~name ~schema rows =
  let arity = Schema.arity schema in
  Array.iter
    (fun r ->
      if not (Int.equal (Tuple.arity r) arity) then
        invalid_arg
          (Printf.sprintf "Relation %s: row arity %d, schema arity %d" name
             (Tuple.arity r) arity))
    rows;
  { name; schema; backend = Backend.Mem rows }

let of_list ~name ~schema rows = create ~name ~schema (Array.of_list rows)

let of_paged ~name ~schema paged =
  { name; schema; backend = Backend.Paged paged }

let name t = t.name
let schema t = t.schema
let backend t = t.backend
let backend_name t = Backend.name t.backend

let cardinality t =
  match t.backend with
  | Backend.Mem rows -> Array.length rows
  | Backend.Paged p -> p.Backend.n_rows

let row t i =
  match t.backend with
  | Backend.Mem rows -> rows.(i)
  | Backend.Paged p -> p.Backend.get_row i

let iteri f t =
  match t.backend with
  | Backend.Mem rows -> Array.iteri f rows
  | Backend.Paged p -> p.Backend.iter_rows f

let iter f t = iteri (fun _ r -> f r) t

let rows t =
  match t.backend with
  | Backend.Mem rows -> rows
  | Backend.Paged p ->
      let out = Array.make p.Backend.n_rows [||] in
      p.Backend.iter_rows (fun i r -> out.(i) <- r);
      out

let arity t = Schema.arity t.schema
let is_empty t = cardinality t = 0

let with_name t name = { t with name }
let with_rows t rows = create ~name:t.name ~schema:t.schema rows

let fold f acc t =
  let acc = ref acc in
  iter (fun r -> acc := f !acc r) t;
  !acc

exception Found

let mem t tup =
  match iter (fun r -> if Tuple.equal r tup then raise Found) t with
  | () -> false
  | exception Found -> true

let to_list t = Array.to_list (rows t)

module Tuple_set = Set.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

let tuple_set t = fold (fun s r -> Tuple_set.add r s) Tuple_set.empty t

(* Multiset-insensitive equality: same schema and same set of rows. *)
let equal_contents a b =
  Schema.equal a.schema b.schema && Tuple_set.equal (tuple_set a) (tuple_set b)

let pp ppf t =
  Fmt.pf ppf "@[<v>%s%a (%d rows)" t.name Schema.pp t.schema (cardinality t);
  let shown = min 20 (cardinality t) in
  for i = 0 to shown - 1 do
    Fmt.pf ppf "@,  %a" Tuple.pp (row t i)
  done;
  if shown < cardinality t then
    Fmt.pf ppf "@,  ... (%d more)" (cardinality t - shown);
  Fmt.pf ppf "@]"

(* Churn: apply one Delta batch, yielding the relation with the removed
   rows gone (surviving rows keep their relative order) and the added
   rows appended after them.  Removes address rows by value; resolution
   assigns each remove the earliest still-unclaimed [Tuple.equal]
   occurrence, in one streaming scan so a paged backend pays one pass,
   not |removes| random probes. *)
let resolve_removes t (d : Delta.t) =
  let n_removes = Array.length d.Delta.removes in
  let out = Jqi_util.Vec.create () in
  if n_removes > 0 then begin
    let pending = Array.map Option.some d.Delta.removes in
    let remaining = ref n_removes in
    iteri
      (fun i row ->
        if !remaining > 0 then begin
          let k = ref 0 and found = ref false in
          while (not !found) && !k < n_removes do
            (match pending.(!k) with
            | Some tup when Tuple.equal tup row ->
                pending.(!k) <- None;
                decr remaining;
                Jqi_util.Vec.push out i;
                found := true
            | Some _ | None -> ());
            incr k
          done
        end)
      t;
    if !remaining > 0 then
      invalid_arg
        (Printf.sprintf
           "Delta: %d delete row(s) not present in relation %s" !remaining
           t.name)
  end;
  (* Scan order is row order, so the indexes come out sorted ascending. *)
  Jqi_util.Vec.to_array out

let apply_delta t (d : Delta.t) =
  Delta.check_arity (Schema.arity t.schema) d;
  let removed = resolve_removes t d in
  match t.backend with
  | Backend.Paged p ->
      let p = p.Backend.apply_delta ~adds:d.Delta.adds ~removed in
      { t with backend = Backend.Paged p }
  | Backend.Mem old_rows ->
      (* The surviving rows ++ adds as a fresh in-memory backend. *)
      let n = Array.length old_rows in
      let keep = Array.make n true in
      Array.iter (fun i -> keep.(i) <- false) removed;
      let out = Jqi_util.Vec.create () in
      for i = 0 to n - 1 do
        if keep.(i) then Jqi_util.Vec.push out old_rows.(i)
      done;
      Array.iter (Jqi_util.Vec.push out) d.Delta.adds;
      { t with backend = Backend.Mem (Jqi_util.Vec.to_array out) }

(* Content fingerprint: FNV-1a 64-bit over a canonical serialization of
   name, schema and every cell, in row-major order.  Cells are fed with a
   type tag (and floats by their IEEE bits), so values that merely render
   alike — Null vs Str "", Int 1 vs Str "1", 1.0 vs 2.0-1.0 rounding —
   cannot collide structurally.  Two relations with equal fingerprints can
   be treated as the same instance for caching purposes: equal name,
   schema, row order and cell values.  Computed over the streaming scan,
   so a paged relation fingerprints straight off its heap file and
   matches the in-memory backend byte for byte. *)
module Fp = struct
  type acc = int64

  let feed_byte h b =
    Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

  let feed_string h s =
    (* Length prefix keeps "ab"+"c" distinct from "a"+"bc". *)
    let h = feed_byte h (String.length s) in
    let h = feed_byte h (String.length s lsr 8) in
    String.fold_left (fun h c -> feed_byte h (Char.code c)) h s

  let feed_int64 h x =
    let h = ref h in
    for shift = 0 to 7 do
      h := feed_byte !h (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
    done;
    !h

  let feed_value h v =
    match v with
    | Value.Null -> feed_byte h 0
    | Value.Bool b -> feed_byte (feed_byte h 1) (Bool.to_int b)
    | Value.Int i -> feed_int64 (feed_byte h 2) (Int64.of_int i)
    | Value.Float f -> feed_int64 (feed_byte h 3) (Int64.bits_of_float f)
    | Value.Str s -> feed_string (feed_byte h 4) s

  let feed_row h row = Array.fold_left feed_value h row
  let feed_rows h rows = Array.fold_left feed_row h rows

  let header t =
    let h = feed_string 0xcbf29ce484222325L t.name in
    List.fold_left
      (fun h (c : Schema.column) ->
        feed_string (feed_string h c.name) (Value.ty_name c.ty))
      h
      (Schema.columns t.schema)

  let of_relation t = fold feed_row (header t) t
  let render h = Printf.sprintf "%016Lx" h
end

let fingerprint t = Fp.render (Fp.of_relation t)

(* Console convenience for the interactive CLI; rendering itself lives in
   Ascii_table, this is the one sanctioned stdout write of the module. *)
let print t =
  let headers = Schema.names t.schema in
  let body =
    List.rev
      (fold
         (fun acc r -> List.map Value.to_string (Tuple.to_list r) :: acc)
         [] t)
  in
  (print_string [@lint.allow "R5"]) (Jqi_util.Ascii_table.render ~headers body)
