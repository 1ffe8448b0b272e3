(** Exhaustive SAT checking — the test oracle for the DPLL solver.
    Refuses more than 22 variables. *)

(** All satisfying assignments, in increasing bitmask order. *)
val all_models : Cnf.t -> bool array list

val is_sat : Cnf.t -> bool
val count_models : Cnf.t -> int
