(* Query-by-output, restricted to the paper's setting.

   The related work (§1: Zhang et al., Tran et al., Das Sarma et al.)
   starts from a *given* query output; our interactive scenario replaces
   it with labeling.  This module bridges the two: given example output
   pairs the user already knows she wants (and optionally pairs she
   rejects), it computes the most specific consistent predicate in one
   shot — no interaction — and reports what else that predicate would
   select, which is exactly the information a user needs to decide whether
   to refine with the interactive loop. *)

module Bits = Jqi_util.Bits

type result = {
  predicate : Bits.t;  (* T(S+), most specific consistent *)
  consistent : bool;  (* false iff the negatives contradict the positives *)
  selected_classes : int list;  (* everything the predicate selects *)
  surprise_classes : int list;
      (* selected classes containing no positive example: the "extra" rows
         the user did not ask for and should review *)
}

let infer universe ~positives ~negatives =
  let omega = Universe.omega universe in
  let module R = Jqi_relational.Relation in
  (* Examples are row pairs, so only a binary universe can read them. *)
  let r, p =
    match Universe.relations universe with
    | Some [| r; p |] -> (r, p)
    | Some rels ->
        invalid_arg
          (Printf.sprintf
             "Qbe.infer: examples are row pairs, but the universe has %d \
              relations"
             (Array.length rels))
    | None -> invalid_arg "Qbe.infer: universe has no backing relations"
  in
  let signature_of (i, j) = Tsig.of_tuples omega (R.row r i) (R.row p j) in
  let pos_sigs = List.map signature_of positives in
  let neg_sigs = List.map signature_of negatives in
  let predicate = Tsig.of_signatures omega pos_sigs in
  let consistent =
    List.for_all (fun s -> not (Tsig.selects predicate s)) neg_sigs
  in
  let selected_classes = Universe.selected_classes universe predicate in
  let has_positive cls_id =
    let s = Universe.signature universe cls_id in
    List.exists (Bits.equal s) pos_sigs
  in
  {
    predicate;
    consistent;
    selected_classes;
    surprise_classes = List.filter (fun c -> not (has_positive c)) selected_classes;
  }

(* How many tuples of D the predicate selects beyond the examples —
   a cheap "how under-specified is this output" measure. *)
let surprise_tuples universe result =
  List.fold_left
    (fun acc c -> acc + Universe.count universe c)
    0 result.surprise_classes
