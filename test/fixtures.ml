(* Shared test fixtures: the paper's running examples. *)

module Value = Jqi_relational.Value
module Schema = Jqi_relational.Schema
module Tuple = Jqi_relational.Tuple
module Relation = Jqi_relational.Relation
module Omega = Jqi_core.Omega
module Universe = Jqi_core.Universe

let int_schema names = Schema.of_names ~ty:Value.TInt names
let str_schema names = Schema.of_names ~ty:Value.TString names

(* Example 2.1: R0(A1,A2) and P0(B1,B2,B3). *)
let r0 =
  Relation.of_list ~name:"R0" ~schema:(int_schema [ "A1"; "A2" ])
    [ Tuple.ints [ 0; 1 ]; Tuple.ints [ 0; 2 ]; Tuple.ints [ 2; 2 ]; Tuple.ints [ 1; 0 ] ]

let p0 =
  Relation.of_list ~name:"P0" ~schema:(int_schema [ "B1"; "B2"; "B3" ])
    [ Tuple.ints [ 1; 1; 0 ]; Tuple.ints [ 0; 1; 2 ]; Tuple.ints [ 2; 0; 0 ] ]

let omega0 = Omega.of_schemas (Relation.schema r0) (Relation.schema p0)
let universe0 = Universe.build [ r0; p0 ]

(* Attribute-pair shorthand: indexes are 0-based, the paper's A1 is index 0. *)
let pred0 pairs = Omega.of_pairs omega0 pairs

(* Row-index pairs for the tuples of D0 as named in the paper:
   (t_i, t'_j) is (i-1, j-1). *)
let d0 (i, j) = (i - 1, j - 1)

(* The class of the universe holding tuple (t_i, t'_j). *)
let class0 (i, j) =
  let tr = Relation.row r0 (i - 1) and tp = Relation.row p0 (j - 1) in
  let s = Jqi_core.Tsig.of_tuples omega0 tr tp in
  match Universe.find_class universe0 s with
  | Some c -> c
  | None -> failwith "Fixtures.class0: signature not in universe"

(* Figure 3's expected T column, in the paper's order. *)
let figure3 =
  [
    ((1, 1), [ (0, 2); (1, 0); (1, 1) ]);
    ((1, 2), [ (0, 0); (1, 1) ]);
    ((1, 3), [ (0, 1); (0, 2) ]);
    ((2, 1), [ (0, 2) ]);
    ((2, 2), [ (0, 0); (1, 2) ]);
    ((2, 3), [ (0, 1); (0, 2); (1, 0) ]);
    ((3, 1), []);
    ((3, 2), [ (0, 2); (1, 2) ]);
    ((3, 3), [ (0, 0); (1, 0) ]);
    ((4, 1), [ (0, 0); (0, 1); (1, 2) ]);
    ((4, 2), [ (0, 1); (1, 0) ]);
    ((4, 3), [ (1, 1); (1, 2) ]);
  ]

(* The introduction's Flight and Hotel instances (Figure 1). *)
let flight =
  Relation.of_list ~name:"Flight" ~schema:(str_schema [ "From"; "To"; "Airline" ])
    [
      Tuple.strs [ "Paris"; "Lille"; "AF" ];
      Tuple.strs [ "Lille"; "NYC"; "AA" ];
      Tuple.strs [ "NYC"; "Paris"; "AA" ];
      Tuple.strs [ "Paris"; "NYC"; "AF" ];
    ]

let hotel =
  Relation.of_list ~name:"Hotel" ~schema:(str_schema [ "City"; "Discount" ])
    [
      Tuple.strs [ "NYC"; "AA" ];
      Tuple.strs [ "Paris"; "None" ];
      Tuple.strs [ "Lille"; "AF" ];
    ]

(* Alcotest testables. *)
let bits_testable =
  Alcotest.testable Jqi_util.Bits.pp Jqi_util.Bits.equal

let entropy_testable =
  Alcotest.testable Jqi_core.Entropy.pp Jqi_core.Entropy.equal

let label_testable =
  Alcotest.testable Jqi_core.Sample.pp_label ( = )

let tuple_testable = Alcotest.testable Tuple.pp Tuple.equal

let value_testable =
  Alcotest.testable Value.pp (fun a b -> Value.compare a b = 0)

(* Structural equality of two universes at any k, representatives
   included.  Returns bool so it can sit inside qcheck properties. *)
let universes_agree u1 u2 =
  Int.equal (Universe.n_classes u1) (Universe.n_classes u2)
  && Int.equal (Universe.total_tuples u1) (Universe.total_tuples u2)
  && Int.equal (Universe.n_relations u1) (Universe.n_relations u2)
  &&
  let rec go i =
    i >= Universe.n_classes u1
    || Jqi_util.Bits.equal (Universe.signature u1 i) (Universe.signature u2 i)
       && Int.equal (Universe.count u1 i) (Universe.count u2 i)
       && (let r1 = (Universe.cls u1 i).Universe.rep
           and r2 = (Universe.cls u2 i).Universe.rep in
           Int.equal (Array.length r1) (Array.length r2)
           && Array.for_all2 Int.equal r1 r2)
       && go (i + 1)
  in
  go 0
