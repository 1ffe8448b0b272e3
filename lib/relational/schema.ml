(* Relation schemas: ordered, named, typed columns.

   The paper assumes attrs(R) and attrs(P) are disjoint; [product] enforces
   disjointness by qualifying clashing names, and [index_of_exn] is the only
   name → position lookup used by the engine. *)

type column = { name : string; ty : Value.ty }

type t = { columns : column array; by_name : (string, int) Hashtbl.t }

let column name ty = { name; ty }

let of_columns columns =
  let columns = Array.of_list columns in
  let by_name = Hashtbl.create (Array.length columns) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem by_name c.name then
        invalid_arg (Printf.sprintf "Schema: duplicate column %S" c.name);
      Hashtbl.add by_name c.name i)
    columns;
  { columns; by_name }

let of_names ?(ty = Value.TString) names =
  of_columns (List.map (fun n -> column n ty) names)

let arity t = Array.length t.columns
let columns t = Array.to_list t.columns
let name_at t i = t.columns.(i).name
let ty_at t i = t.columns.(i).ty
let names t = Array.to_list (Array.map (fun c -> c.name) t.columns)

let index_of t name = Hashtbl.find_opt t.by_name name

let index_of_exn t name =
  match index_of t name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Schema: no column %S" name)

let mem t name = Hashtbl.mem t.by_name name

let equal a b =
  Int.equal (arity a) (arity b)
  && Array.for_all2
       (fun c d -> String.equal c.name d.name && Value.ty_equal c.ty d.ty)
       a.columns b.columns

(* Concatenation for Cartesian products.  Columns whose names clash are
   qualified with the given prefixes, keeping attribute sets disjoint as the
   paper's setting requires. *)
let product ?(left_prefix = "l") ?(right_prefix = "r") a b =
  let clash name = mem a name && mem b name in
  let qualify prefix c =
    if clash c.name then { c with name = prefix ^ "." ^ c.name } else c
  in
  of_columns
    (List.map (qualify left_prefix) (columns a)
    @ List.map (qualify right_prefix) (columns b))

let project t idxs =
  of_columns (List.map (fun i -> t.columns.(i)) idxs)

let rename t old_name new_name =
  let i = index_of_exn t old_name in
  of_columns
    (List.mapi
       (fun j c -> if Int.equal j i then { c with name = new_name } else c)
       (columns t))

let pp ppf t =
  Fmt.pf ppf "(%a)"
    Fmt.(list ~sep:(any ", ") (fun ppf c ->
             Fmt.pf ppf "%s:%s" c.name (Value.ty_name c.ty)))
    (columns t)
