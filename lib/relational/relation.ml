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
end

module Obs = Jqi_obs.Obs

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

(* ---- content fingerprints ---- *)

(* A relation's fingerprint combines one FNV-1a hash per row, in row
   order, as a polynomial modulo the Mersenne prime p = 2^61 - 1:
   poly = h_0·B^(n-1) + … + h_(n-1) (Horner order, so appending a row is
   [poly·B + h]).  A row hash is 64-bit FNV-1a over a canonical
   serialization of the row's cells: each cell is fed with a type tag
   (and floats by their IEEE bits), so values that merely render alike
   — Null vs Str "", Int 1 vs Str "1" — cannot collide structurally.
   The header hash (FNV-1a over name and schema), the row count and the
   polynomial are folded into the rendered 16 hex digits.

   Because the combination is a polynomial, a delta updates it without
   reading the untouched rows: the resolution scan hashes the rows it
   reads anyway (see [resolve_removes]), and [digest_after] derives the
   post-delta polynomial from the pre-delta one in O(|adds| + log n).

   The field arithmetic is branchless: its sums are uniform over the
   field, so a branch on them would mispredict about every other row. *)

let fp_p = (1 lsl 61) - 1

(* Below 2^30, so one Horner step needs two short products. *)
let fp_base = 0x2f1b3a95

(* x mod p, for 0 <= x < 2^62. *)
let reduce x =
  let t = (x land fp_p) + (x lsr 61) - fp_p in
  t + ((t asr 62) land fp_p)

let addmod a b =
  let t = a + b - fp_p in
  t + ((t asr 62) land fp_p)

let submod a b =
  let t = a - b in
  t + ((t asr 62) land fp_p)

(* a·b mod p for a, b < p, on 31-bit halves so no product leaves the
   63-bit int: a·b = hi·2^62 + mid·2^31 + lo, and 2^61 ≡ 1. *)
let mulmod a b =
  let m31 = (1 lsl 31) - 1 and m30 = (1 lsl 30) - 1 in
  let ah = a lsr 31 and al = a land m31 and bh = b lsr 31 and bl = b land m31 in
  let hi = ah * bh and mid = (ah * bl) + (al * bh) and lo = al * bl in
  addmod
    (addmod (reduce ((hi lsl 1) + (mid lsr 30))) (reduce ((mid land m30) lsl 31)))
    (reduce lo)

(* x·B mod p for x < p: with x = xh·2^31 + xl, x·B = q·2^31 + xl·B for
   q = xh·B < 2^60, and q·2^31 ≡ (q lsr 30) + (q mod 2^30)·2^31. *)
let times_base x =
  let q = (x lsr 31) * fp_base in
  reduce
    ((q lsr 30) + ((q land ((1 lsl 30) - 1)) lsl 31) + ((x land ((1 lsl 31) - 1)) * fp_base))

let rec powmod b e =
  if Int.equal e 0 then 1
  else
    let h = powmod (mulmod b b) (e lsr 1) in
    if Int.equal (e land 1) 0 then h else mulmod h b

let feed_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) 0x100000001b3L

let feed_string h s =
  (* Length prefix keeps "ab"+"c" distinct from "a"+"bc". *)
  let h = feed_byte (feed_byte h (String.length s)) (String.length s lsr 8) in
  String.fold_left (fun h c -> feed_byte h (Char.code c)) h s

let feed_int64 h x =
  let h = ref h in
  for shift = 0 to 7 do
    h := feed_byte !h (Int64.to_int (Int64.shift_right_logical x (shift * 8)))
  done;
  !h

(* A cell after its type tag ([row_hash] feeds int cells inline). *)
let feed_cell h = function
  | Value.Null -> feed_byte h 0
  | Value.Bool b -> feed_byte (feed_byte h 1) (Bool.to_int b)
  | Value.Int i -> feed_int64 (feed_byte h 2) (Int64.of_int i)
  | Value.Float f -> feed_int64 (feed_byte h 3) (Int64.bits_of_float f)
  | Value.Str s -> feed_string (feed_byte h 4) s

let fnv_offset = 0xcbf29ce484222325L
let c_rows_hashed = Obs.Counter.make "relation.rows_hashed"
let c_resolve_rows = Obs.Counter.make "relation.resolve_rows"

(* An int cell, the common case, is fed inline (its 8 bytes as
   [Int64.of_int] gives them: [asr] keeps the sign in the top byte), so
   the hash state stays unboxed through the row. *)
let row_hash row =
  let h = ref fnv_offset in
  for c = 0 to Array.length row - 1 do
    match row.(c) with
    | Value.Int i ->
        h := feed_byte !h 2;
        for shift = 0 to 7 do
          h := feed_byte !h (i asr (shift * 8))
        done
    | (Value.Null | Value.Bool _ | Value.Float _ | Value.Str _) as v ->
        h := feed_cell !h v
  done;
  reduce (Int64.to_int !h land max_int)

(* One more row at the end of a polynomial. *)
let push poly row = addmod (times_base poly) (row_hash row)

type digest = { head : int64; n : int; poly : int }

let digest t =
  let head =
    List.fold_left
      (fun h (c : Schema.column) ->
        feed_string (feed_string h c.name) (Value.ty_name c.ty))
      (feed_string fnv_offset t.name)
      (Schema.columns t.schema)
  in
  Obs.Counter.add c_rows_hashed (cardinality t);
  { head; n = cardinality t; poly = fold push 0 t }

let digest_hex d =
  Printf.sprintf "%016Lx"
    (feed_int64 (feed_int64 d.head (Int64.of_int d.n)) (Int64.of_int d.poly))

let fingerprint t = digest_hex (digest t)

(* ---- churn ---- *)

(* Churn: apply one Delta batch, yielding the relation with the removed
   rows gone (surviving rows keep their relative order) and the added
   rows appended after them.  [scan] is what the resolution scan saw:
   the [read] leading rows, as one polynomial over all of them ([pre])
   and one over those that survive ([post]). *)
type scan = { read : int; pre : int; post : int }
type change = { after : t; removed : int array; delta : Delta.t; scan : scan }

exception Claimed_all

(* Each remove claims the earliest still-unclaimed [Tuple.equal] row, in
   one streaming scan that stops at the last claim, so a paged backend
   pays at most one pass, not |removes| random probes.  Scan order is
   row order: the claimed indexes come out ascending, beside the rows
   they hold.  Every row read is hashed into the scan's polynomials. *)
let resolve_removes t (d : Delta.t) =
  let pending = Array.map Option.some d.Delta.removes in
  let removed = Jqi_util.Vec.create () and claimed = Jqi_util.Vec.create () in
  let read = ref 0 and pre = ref 0 and post = ref 0 in
  let claim i row =
    incr read;
    pre := push !pre row;
    match
      Array.find_index
        (function Some tup -> Tuple.equal tup row | None -> false)
        pending
    with
    | None -> post := push !post row
    | Some k ->
        pending.(k) <- None;
        Jqi_util.Vec.push removed i;
        Jqi_util.Vec.push claimed row;
        if Int.equal (Jqi_util.Vec.length removed) (Array.length pending) then
          raise Claimed_all
  in
  (if Array.length pending > 0 then
     match iteri claim t with () | (exception Claimed_all) -> ());
  Obs.Counter.add c_resolve_rows !read;
  Obs.Counter.add c_rows_hashed !read;
  let missing = Array.length pending - Jqi_util.Vec.length removed in
  if missing > 0 then
    invalid_arg
      (Printf.sprintf "Delta: %d delete row(s) not present in relation %s"
         missing t.name);
  ( Jqi_util.Vec.to_array removed,
    Jqi_util.Vec.to_array claimed,
    { read = !read; pre = !pre; post = !post } )

let apply_delta t (d : Delta.t) =
  Delta.check_arity (Schema.arity t.schema) d;
  let removed, claimed, scan = resolve_removes t d in
  let backend =
    match t.backend with
    | Backend.Paged p ->
        Backend.Paged (p.Backend.apply_delta ~adds:d.Delta.adds ~removed)
    | Backend.Mem old_rows ->
        (* The surviving rows ++ adds as a fresh in-memory backend. *)
        let survivors = Array.length old_rows - Array.length removed in
        let rows = Array.make (survivors + Array.length d.Delta.adds) [||] in
        let j = ref 0 in
        Array.iteri
          (fun i r ->
            if !j < Array.length removed && Int.equal removed.(!j) i then incr j
            else rows.(i - !j) <- r)
          old_rows;
        Array.blit d.Delta.adds 0 rows survivors (Array.length d.Delta.adds);
        Backend.Mem rows
  in
  {
    after = { t with backend };
    removed;
    delta = { d with removes = claimed };
    scan;
  }

(* The s rows past the scanned prefix are untouched and stay last, so
   the pre-delta polynomial is pre·B^s + suffix and the post-delta one
   is post·B^s + suffix with the adds pushed after it. *)
let digest_after d (c : change) =
  let n = d.n - Array.length c.removed + Array.length c.delta.adds in
  if not (Int.equal n (cardinality c.after)) then
    invalid_arg "Relation.digest_after: change from another relation version";
  let bs = powmod fp_base (d.n - c.scan.read) in
  let suffix = submod d.poly (mulmod c.scan.pre bs) in
  Obs.Counter.add c_rows_hashed (Array.length c.delta.adds);
  {
    d with
    n;
    poly = Array.fold_left push (addmod (mulmod c.scan.post bs) suffix) c.delta.adds;
  }

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
