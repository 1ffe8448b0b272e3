(* First-class data churn: one batch of row insertions and deletions
   against a single relation.

   A delta is pure data — two tuple batches, no reference to the relation
   it targets — so the same value can travel untouched from a protocol
   frame through the catalog down to the storage engine.  Removals are
   *by value*: each remove claims one occurrence of an equal row
   ([Tuple.equal], NULL cells compare equal structurally), which is the
   only addressing mode a wire client has.  Resolution of removes to
   concrete row indexes is the relation's job ({!Relation.apply_delta}),
   keeping this module free of any backend concern. *)

type t = { adds : Tuple.t array; removes : Tuple.t array }

let empty = { adds = [||]; removes = [||] }

let of_lists ~adds ~removes =
  { adds = Array.of_list adds; removes = Array.of_list removes }

let is_empty d = Array.length d.adds = 0 && Array.length d.removes = 0
let cardinality_shift d = Array.length d.adds - Array.length d.removes

let check_arity arity d =
  let chk what r =
    if not (Int.equal (Tuple.arity r) arity) then
      invalid_arg
        (Printf.sprintf "Delta: %s row arity %d, relation arity %d" what
           (Tuple.arity r) arity)
  in
  Array.iter (chk "insert") d.adds;
  Array.iter (chk "delete") d.removes
