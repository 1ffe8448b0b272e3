(* The attribute-pair universe Ω.

   Binary (the paper's §2): Ω = attrs(R) × attrs(P).  K-ary (ROADMAP
   item 2): for relations R_0..R_{k-1} and an edge set E of relation
   pairs i < j (all pairs by default), Ω = ⋃_{(i,j)∈E} attrs(R_i) ×
   attrs(R_j) — one block of bits per edge, blocks laid out in
   lexicographic (i,j) order.  For k = 2 there is a single block (0,1)
   at offset 0, so the k-ary layout degenerates to the historical
   [i*m + j] bit positions: binary predicates are bit-compatible across
   both code paths.  A chain E = {(0,1), (1,2), …} is the join-path
   universe: a path predicate is a k-ary predicate over adjacent blocks.

   A join predicate θ ⊆ Ω is represented as a bitset ([Jqi_util.Bits.t])
   of width |Ω|; this module owns the bijection between bit positions and
   attribute pairs. *)

module Bits = Jqi_util.Bits

type t = {
  arities : int array;  (* arity per relation *)
  names : string array array;  (* attribute names per relation *)
  rel_names : string array;  (* relation names (k-ary printing) *)
  offsets : int array array;  (* offsets.(i).(j) for present i < j; -1 elsewhere *)
  blocks : (int * int * int) array;  (* present (i, j, offset), lexicographic *)
  width : int;
}

let n_relations t = Array.length t.arities
let arity_at t i = t.arities.(i)
let attr_name t i a = t.names.(i).(a)
let rel_name t i = t.rel_names.(i)
let width t = t.width
let blocks t = t.blocks

let create_kary ?rel_names ?edges names =
  let k = Array.length names in
  if k < 2 then invalid_arg "Omega: need at least two relations";
  let arities = Array.map Array.length names in
  Array.iter
    (fun n -> if n <= 0 then invalid_arg "Omega: need at least one attribute")
    arities;
  let rel_names =
    match rel_names with
    | Some rs ->
        if Array.length rs <> k then
          invalid_arg "Omega: relation name array must match relation count";
        rs
    | None -> Array.init k (fun i -> Printf.sprintf "R%d" (i + 1))
  in
  let edges =
    match edges with
    | Some es -> es
    | None -> List.concat (List.init k (fun i -> List.init (k - 1 - i) (fun d -> (i, i + 1 + d))))
  in
  if List.is_empty edges then invalid_arg "Omega: need at least one edge";
  (* Mark the present blocks (0 = present, -1 = absent), then lay them
     out in lexicographic (i,j) order whatever order the edges came in. *)
  let offsets = Array.make_matrix k k (-1) in
  List.iter
    (fun (i, j) ->
      if i < 0 || j >= k || i >= j then
        invalid_arg (Printf.sprintf "Omega: bad edge (%d,%d) for k=%d" i j k);
      if offsets.(i).(j) >= 0 then
        invalid_arg (Printf.sprintf "Omega: duplicate edge (%d,%d)" i j);
      offsets.(i).(j) <- 0)
    edges;
  let off = ref 0 and rev_blocks = ref [] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if offsets.(i).(j) >= 0 then begin
        offsets.(i).(j) <- !off;
        rev_blocks := (i, j, !off) :: !rev_blocks;
        off := !off + (arities.(i) * arities.(j))
      end
    done
  done;
  let blocks = Array.of_list (List.rev !rev_blocks) in
  { arities; names; rel_names; offsets; blocks; width = !off }

let create ?r_names ?p_names ~n ~m () =
  if n <= 0 || m <= 0 then invalid_arg "Omega: need at least one attribute";
  let default prefix k = Array.init k (fun i -> Printf.sprintf "%s%d" prefix (i + 1)) in
  let r_names = Option.value ~default:(default "A" n) r_names in
  let p_names = Option.value ~default:(default "B" m) p_names in
  if Array.length r_names <> n || Array.length p_names <> m then
    invalid_arg "Omega: name arrays must match arities";
  create_kary ~rel_names:[| "R"; "P" |] [| r_names; p_names |]

let of_schemas sr sp =
  let module S = Jqi_relational.Schema in
  create
    ~r_names:(Array.of_list (S.names sr))
    ~p_names:(Array.of_list (S.names sp))
    ~n:(S.arity sr) ~m:(S.arity sp) ()

let of_schemas_kary ?edges named =
  let module S = Jqi_relational.Schema in
  let named = Array.of_list named in
  create_kary ?edges
    ~rel_names:(Array.map fst named)
    (Array.map (fun (_, s) -> Array.of_list (S.names s)) named)

(* Binary views: total only when k = 2. *)

let binary t op =
  if n_relations t <> 2 then
    invalid_arg (Printf.sprintf "Omega.%s: k-ary universe (k=%d)" op (n_relations t))

let left_arity t =
  binary t "left_arity";
  t.arities.(0)

let right_arity t =
  binary t "right_arity";
  t.arities.(1)

let index t i j =
  binary t "index";
  let n = t.arities.(0) and m = t.arities.(1) in
  if i < 0 || i >= n || j < 0 || j >= m then
    invalid_arg (Printf.sprintf "Omega.index: (%d,%d) outside %dx%d" i j n m);
  (i * m) + j

let pair t k =
  binary t "pair";
  if k < 0 || k >= width t then invalid_arg "Omega.pair: out of range";
  let m = t.arities.(1) in
  (k / m, k mod m)

let r_name t i =
  binary t "r_name";
  t.names.(0).(i)

let p_name t j =
  binary t "p_name";
  t.names.(1).(j)

(* K-ary bit bijection. *)

let block_offset t i j =
  let k = n_relations t in
  if i < 0 || j < 0 || i >= k || j >= k || i >= j then
    invalid_arg (Printf.sprintf "Omega.block_offset: bad block (%d,%d) for k=%d" i j k);
  if t.offsets.(i).(j) < 0 then
    invalid_arg (Printf.sprintf "Omega.block_offset: absent block (%d,%d)" i j);
  t.offsets.(i).(j)

let kindex t (i, a) (j, b) =
  let (i, a), (j, b) = if i <= j then ((i, a), (j, b)) else ((j, b), (i, a)) in
  let k = n_relations t in
  if i < 0 || j >= k || i = j then
    invalid_arg (Printf.sprintf "Omega.kindex: bad relation pair (%d,%d) for k=%d" i j k);
  if a < 0 || a >= t.arities.(i) || b < 0 || b >= t.arities.(j) then
    invalid_arg
      (Printf.sprintf "Omega.kindex: attribute (%d,%d) outside %dx%d" a b
         t.arities.(i) t.arities.(j));
  if t.offsets.(i).(j) < 0 then
    invalid_arg (Printf.sprintf "Omega.kindex: absent block (%d,%d)" i j);
  t.offsets.(i).(j) + (a * t.arities.(j)) + b

let kpair t bit =
  if bit < 0 || bit >= t.width then invalid_arg "Omega.kpair: out of range";
  match
    Array.find_opt
      (fun (i, j, base) -> bit >= base && bit < base + (t.arities.(i) * t.arities.(j)))
      t.blocks
  with
  | Some (i, j, base) ->
      let local = bit - base in
      let m = t.arities.(j) in
      ((i, local / m), (j, local mod m))
  | None -> invalid_arg "Omega.kpair: out of range"

let empty t = Bits.empty (width t)
let full t = Bits.full (width t)

let of_kpairs t pairs =
  List.fold_left (fun b (p, q) -> Bits.add b (kindex t p q)) (empty t) pairs

let to_kpairs t b = List.map (kpair t) (Bits.elements b)

let of_pairs t pairs =
  List.fold_left (fun b (i, j) -> Bits.add b (index t i j)) (empty t) pairs

let to_pairs t b = List.map (pair t) (Bits.elements b)

let find_attr arr name =
  let rec go i =
    if i >= Array.length arr then None
    else if String.equal arr.(i) name then Some i
    else go (i + 1)
  in
  go 0

let of_names t pairs =
  binary t "of_names";
  let find arr name =
    match find_attr arr name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Omega.of_names: no attribute %S" name)
  in
  of_pairs t
    (List.map (fun (a, b) -> (find t.names.(0) a, find t.names.(1) b)) pairs)

(* Resolve "rel.attr" (or a bare attribute name when globally unique) to a
   (relation, attribute) position. *)
let resolve_name t spec =
  let fail msg = invalid_arg (Printf.sprintf "Omega.of_names_kary: %s %S" msg spec) in
  match String.index_opt spec '.' with
  | Some dot -> (
      let rel = String.sub spec 0 dot in
      let attr = String.sub spec (dot + 1) (String.length spec - dot - 1) in
      let rels = ref [] in
      for i = n_relations t - 1 downto 0 do
        if String.equal t.rel_names.(i) rel then rels := i :: !rels
      done;
      match !rels with
      | [ i ] -> (
          match find_attr t.names.(i) attr with
          | Some a -> (i, a)
          | None -> fail "no attribute in")
      | [] -> fail "no relation in"
      | _ :: _ :: _ ->
          invalid_arg
            (Printf.sprintf
               "Omega.of_names_kary: ambiguous relation %S in %S (qualify uniquely)"
               rel spec))
  | None ->
      let hits = ref [] in
      for i = n_relations t - 1 downto 0 do
        match find_attr t.names.(i) spec with
        | Some a -> hits := (i, a) :: !hits
        | None -> ()
      done;
      (match !hits with
      | [ p ] -> p
      | [] -> fail "no attribute"
      | _ :: _ :: _ -> fail "ambiguous attribute (qualify as rel.attr)")

let of_names_kary t pairs =
  of_kpairs t (List.map (fun (a, b) -> (resolve_name t a, resolve_name t b)) pairs)

let pp_pred t ppf b =
  if Bits.is_empty b then Fmt.string ppf "{}"
  else if n_relations t = 2 then
    (* Historical binary rendering: bare attribute names. *)
    let pp_pair ppf (i, j) = Fmt.pf ppf "(%s,%s)" t.names.(0).(i) t.names.(1).(j) in
    Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_pair) (to_pairs t b)
  else
    let pp_pos ppf (i, a) = Fmt.pf ppf "%s.%s" t.rel_names.(i) t.names.(i).(a) in
    let pp_pair ppf (p, q) = Fmt.pf ppf "(%a,%a)" pp_pos p pp_pos q in
    Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") pp_pair) (to_kpairs t b)

let pred_to_string t b = Fmt.str "%a" (pp_pred t) b

(* All of PP(Ω) — exponential, only for brute-force reference oracles. *)
let all_predicates t = Bits.subsets (full t)
