(* Dictionary encoding of cell values into dense integer codes.

   The universe constructor compares every R-cell against every P-cell
   under [Value.eq]; interning both relations' cells into one shared code
   space turns those comparisons into integer equality on pre-encoded
   arrays — no tag dispatch, no boxed payload reads in the inner loop.

   The code space mirrors [Value.eq] exactly:

   - two values share a code iff [Value.eq] holds between them, which the
     table guarantees by hashing with [Value.hash] and resolving with
     [Value.eq] (values of different types never match, so they never
     share a code even on hash collisions);
   - NULL and Float NaN are never equal to anything, themselves included,
     so they get [no_code] (which is negative and never equals a real
     code).  A NaN key must not enter the table at all: [Value.eq] on NaN
     is irreflexive, so an inserted NaN could never be found again and
     every occurrence would leak a fresh code.

   [no_code] slots still take part in row-profile equality (two rows that
   both hold NULL at a column behave identically against every partner
   row), which is exactly what the profile quotient needs. *)

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.eq
  let hash = Value.hash
end)

type t = { table : int VH.t; mutable next : int }

let no_code = -1

let create ?(size = 256) () = { table = VH.create (max 16 size); next = 0 }

let size t = t.next

let codable v =
  match v with
  | Value.Null -> false
  | Value.Float f -> not (Float.is_nan f)
  | Value.Bool _ | Value.Int _ | Value.Str _ -> true

let code t v =
  if not (codable v) then no_code
  else
    match VH.find_opt t.table v with
    | Some c -> c
    | None ->
        let c = t.next in
        t.next <- c + 1;
        VH.add t.table v c;
        c

let find t v =
  if not (codable v) then no_code
  else match VH.find_opt t.table v with Some c -> c | None -> no_code

let encode_row t row = Array.init (Tuple.arity row) (fun i -> code t (Tuple.get row i))

(* Churn interning: only the *added* rows can carry unseen values, and a
   first-sight cell mints the next dense code exactly as a fresh build
   would.  Removed rows never surrender their codes — codes are minted
   forever, so every signature computed before the delta stays
   comparable with every signature computed after it. *)
let intern_delta t (d : Delta.t) = Array.map (encode_row t) d.Delta.adds

(* Streaming row-major encoding.  The in-memory arm interns cell by
   cell, exactly like [encode_row] over [Relation.rows] used to.  The
   paged arm uses the store's coded access to avoid re-hashing every
   cell: the store's codes are dense in first-occurrence order, which
   IS row-major first-sight order, so interning the store's value list
   in code order performs the same sequence of [code] calls as a
   row-major scan would — the shared dictionary ends up bit-identical,
   and each row then translates through a plain array lookup. *)
let iter_encoded t rel f =
  match Relation.backend rel with
  | Relation.Backend.Paged { Relation.Backend.coded = c; _ } ->
      let translate =
        Array.init c.Relation.Backend.distinct (fun fc ->
            code t (c.Relation.Backend.value fc))
      in
      c.Relation.Backend.iter_codes (fun i codes ->
          for k = 0 to Array.length codes - 1 do
            let fc = codes.(k) in
            codes.(k) <- (if fc < 0 then no_code else translate.(fc))
          done;
          f i codes)
  | Relation.Backend.Mem _ ->
      let buf = Array.make (Relation.arity rel) no_code in
      Relation.iteri
        (fun i row ->
          for k = 0 to Array.length buf - 1 do
            buf.(k) <- code t (Tuple.get row k)
          done;
          f i buf)
        rel

let encode_rows t rel =
  let out = Array.make (Relation.cardinality rel) [||] in
  iter_encoded t rel (fun i codes -> out.(i) <- Array.copy codes);
  out

let encode_column t rel col =
  if col < 0 || col >= Relation.arity rel then
    invalid_arg (Printf.sprintf "Dict.encode_column: no column %d" col);
  Array.map (fun row -> code t (Tuple.get row col)) (Relation.rows rel)
