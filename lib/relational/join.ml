(* Equijoin and semijoin evaluation.

   A join predicate at this level is a list of column-index pairs
   [(i, j)] meaning R.col_i = P.col_j (the θ of the paper, resolved to
   positions).  Two evaluators are provided: a nested-loop reference
   implementation and a hash join; the test suite checks they agree.

   The empty predicate θ = ∅ denotes the Cartesian product (every pair
   vacuously satisfies it), matching the paper's "most general join
   predicate H". *)

type predicate = (int * int) list

module Obs = Jqi_obs.Obs
module Vec = Jqi_util.Vec

let c_join_output = Obs.Counter.make "join.output_rows"
let c_nested_pairs = Obs.Counter.make "join.nested_pairs"

let check_predicate r p (theta : predicate) =
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= Relation.arity r then
        invalid_arg (Printf.sprintf "Join: bad left column %d" i);
      if j < 0 || j >= Relation.arity p then
        invalid_arg (Printf.sprintf "Join: bad right column %d" j))
    theta

let matches (theta : predicate) tr tp =
  List.for_all (fun (i, j) -> Value.eq (Tuple.get tr i) (Tuple.get tp j)) theta

let product_schema r p =
  Schema.product
    ~left_prefix:(Relation.name r)
    ~right_prefix:(Relation.name p)
    (Relation.schema r) (Relation.schema p)

(* Output rows are accumulated in a growable buffer ([Jqi_util.Vec]), not
   the [list ref]/[List.rev]/[Array.of_list] chain: each output row is
   stored once, and the final array is one [Array.sub]. *)
let rows_relation r p (out : Tuple.t Vec.t) =
  Obs.Counter.add c_join_output (Vec.length out);
  Relation.create
    ~name:(Relation.name r ^ "_join_" ^ Relation.name p)
    ~schema:(product_schema r p)
    (Vec.to_array out)

(* R ⋈_θ P by nested loops — the executable definition. *)
let equijoin_nested r p (theta : predicate) =
  check_predicate r p theta;
  Obs.span "join.equijoin_nested" @@ fun () ->
  Obs.Counter.add c_nested_pairs (Relation.cardinality r * Relation.cardinality p);
  let out = Vec.create () in
  Relation.iter
    (fun tr ->
      Relation.iter
        (fun tp -> if matches theta tr tp then Vec.push out (Tuple.concat tr tp))
        p)
    r;
  rows_relation r p out

(* R ⋈_θ P with a hash index on P's join columns.  The probe key buffer is
   hoisted out of the loop over R ([Index.prober]), so the probe phase
   allocates only the output rows. *)
let equijoin r p (theta : predicate) =
  check_predicate r p theta;
  match theta with
  | [] -> equijoin_nested r p theta
  | _ :: _ ->
      Obs.span "join.equijoin" @@ fun () ->
      let idx = Index.build p ~columns:(List.map snd theta) in
      let probe = Index.prober idx ~probe_columns:(List.map fst theta) in
      let out = Vec.create () in
      Relation.iter
        (fun tr ->
          List.iter
            (fun j -> Vec.push out (Tuple.concat tr (Relation.row p j)))
            (probe tr))
        r;
      rows_relation r p out

let filter_rows r keep =
  let out = Vec.create () in
  Relation.iter (fun tr -> if keep tr then Vec.push out tr) r;
  Relation.with_rows r (Vec.to_array out)

(* R ⋉_θ P = Π_attrs(R)(R ⋈_θ P), duplicate-free over R's rows. *)
let semijoin r p (theta : predicate) =
  check_predicate r p theta;
  let keep =
    match theta with
    | [] -> fun _ -> not (Relation.is_empty p)
    | _ :: _ ->
        let idx = Index.build p ~columns:(List.map snd theta) in
        let probe = Index.prober idx ~probe_columns:(List.map fst theta) in
        fun tr -> (match probe tr with [] -> false | _ :: _ -> true)
  in
  filter_rows r keep

let semijoin_nested r p (theta : predicate) =
  check_predicate r p theta;
  filter_rows r
    (fun tr -> Relation.fold (fun acc tp -> acc || matches theta tr tp) false p)

(* Anti-join: rows of R with no θ-partner in P. *)
let antijoin r p (theta : predicate) =
  let selected = Relation.tuple_set (semijoin r p theta) in
  filter_rows r (fun tr -> not (Relation.Tuple_set.mem tr selected))

(* Resolve a predicate given by column names. *)
let predicate_of_names r p pairs : predicate =
  List.map
    (fun (a, b) ->
      ( Schema.index_of_exn (Relation.schema r) a,
        Schema.index_of_exn (Relation.schema p) b ))
    pairs
