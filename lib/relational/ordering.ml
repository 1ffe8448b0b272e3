(* Candidate variable orderings.  All deterministic: sorts are stable
   only by construction (the comparison breaks ties on the variable
   index), so equal inputs give equal orders on every run. *)

let permutation vars compare_at =
  let n = Array.length vars in
  let order = Array.init n (fun i -> i) in
  Array.sort compare_at order;
  order

let by_cardinality vars =
  permutation vars (fun a b ->
      let c =
        Int.compare vars.(a).Leapfrog.card vars.(b).Leapfrog.card
      in
      if c <> 0 then c else Int.compare a b)

let degree vars v = List.length vars.(v).Leapfrog.positions

let by_degree vars =
  permutation vars (fun a b ->
      let c = Int.compare (degree vars b) (degree vars a) in
      if c <> 0 then c else Int.compare a b)

let identity vars = Array.init (Array.length vars) (fun i -> i)

let equal_order (a : int array) (b : int array) =
  Array.length a = Array.length b
  &&
  let rec go i =
    i >= Array.length a || (Int.equal a.(i) b.(i) && go (i + 1))
  in
  go 0

let candidates vars =
  List.rev
    (List.fold_left
       (fun acc order ->
         if List.exists (equal_order order) acc then acc else order :: acc)
       []
       [ by_cardinality vars; by_degree vars; identity vars ])

let default = by_cardinality
