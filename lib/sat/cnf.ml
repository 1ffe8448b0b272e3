(* CNF formulas in DIMACS-style integer encoding.

   A literal is a non-zero int: v > 0 is the variable v, -v its negation.
   Variables are numbered from 1.  Clauses are int arrays.  This is the
   input format of the DPLL solver and the target of the Tseitin
   transform. *)

type clause = int array

type t = { nvars : int; clauses : clause list }

let create ~nvars clauses =
  List.iter
    (fun c ->
      Array.iter
        (fun l ->
          if l = 0 || abs l > nvars then
            invalid_arg (Printf.sprintf "Cnf: literal %d out of range" l))
        c)
    clauses;
  { nvars; clauses }

let nvars t = t.nvars
let clauses t = t.clauses
let n_clauses t = List.length t.clauses

(* Remove duplicate literals; detect tautological clauses (x ∨ ¬x). *)
let normalize_clause c =
  let lits = List.sort_uniq compare (Array.to_list c) in
  if List.exists (fun l -> List.mem (-l) lits) lits then None
  else Some (Array.of_list lits)

let simplify t =
  { t with clauses = List.filter_map normalize_clause t.clauses }

(* Evaluate under a total assignment (index 0 unused). *)
let lit_true assignment l =
  if l > 0 then assignment.(l) else not assignment.(-l)

let clause_satisfied assignment c = Array.exists (lit_true assignment) c

let satisfied t assignment =
  Array.length assignment >= t.nvars + 1
  && List.for_all (clause_satisfied assignment) t.clauses
