(* Scalability of the quotient approach (beyond the paper's figures, in
   support of its §5 claim of "efficiency and scalability").

   Sweeping the instance size l of a fixed synthetic configuration
   (arity, arity, l, v), we measure: the time to quotient the l² product,
   the number of signature classes it collapses to, and the interactions a
   local and a lookahead strategy then need.  The point the table makes:
   build time grows with the product, but the class count — and with it
   the number of questions — stays governed by the lattice, which is what
   lets the interactive protocol survive big instances. *)

module Prng = Jqi_util.Prng
module Timer = Jqi_util.Timer
module Table = Jqi_util.Ascii_table
module Universe = Jqi_core.Universe
module Strategy = Jqi_core.Strategy
module Oracle = Jqi_core.Oracle
module Inference = Jqi_core.Inference
module Synth = Jqi_synth.Synth

type point = {
  rows : int;
  product : int;
  build_seconds : float;
  classes : float;  (* mean over runs *)
  join_ratio : float;
  td_interactions : float;
  l2s_interactions : float;
  l2s_seconds : float;
}

let run ?(seed = 23) ?(runs = 3) ?(r_arity = 3) ?(p_arity = 3) ?(values = 100)
    row_counts =
  let prng = Prng.create seed in
  List.map
    (fun rows ->
      let config = Synth.config r_arity p_arity rows values in
      let acc_build = ref 0. and acc_classes = ref 0 in
      let acc_ratio = ref 0. in
      let acc_td = ref 0. and acc_l2s = ref 0. and acc_l2s_t = ref 0. in
      for _ = 1 to runs do
        let r, p = Synth.generate prng config in
        let universe, dt = Timer.time (fun () -> Universe.build [ r; p ]) in
        acc_build := !acc_build +. dt;
        acc_classes := !acc_classes + Universe.n_classes universe;
        acc_ratio := !acc_ratio +. Universe.join_ratio universe;
        (* A fixed-size goal: the first size-1 predicate of the instance,
           or ∅ if the instance has no matches at all. *)
        let goal =
          match Synth.goals_of_size universe ~size:1 with
          | g :: _ -> g
          | [] -> Jqi_core.Omega.empty (Universe.omega universe)
        in
        let td = Inference.run universe Strategy.td (Oracle.honest ~goal) in
        let l2s = Inference.run universe Strategy.l2s (Oracle.honest ~goal) in
        acc_td := !acc_td +. float_of_int td.n_interactions;
        acc_l2s := !acc_l2s +. float_of_int l2s.n_interactions;
        acc_l2s_t := !acc_l2s_t +. l2s.elapsed
      done;
      let f = float_of_int runs in
      {
        rows;
        product = rows * rows;
        build_seconds = !acc_build /. f;
        classes = float_of_int !acc_classes /. f;
        join_ratio = !acc_ratio /. f;
        td_interactions = !acc_td /. f;
        l2s_interactions = !acc_l2s /. f;
        l2s_seconds = !acc_l2s_t /. f;
      })
    row_counts

let render points =
  Table.render
    ~headers:
      [
        "rows/relation"; "|D|"; "build (s)"; "classes"; "join ratio";
        "TD int."; "L2S int."; "L2S time (s)";
      ]
    (List.map
       (fun p ->
         [
           string_of_int p.rows;
           string_of_int p.product;
           Printf.sprintf "%.4f" p.build_seconds;
           Printf.sprintf "%.1f" p.classes;
           Printf.sprintf "%.3f" p.join_ratio;
           Printf.sprintf "%.1f" p.td_interactions;
           Printf.sprintf "%.1f" p.l2s_interactions;
           Printf.sprintf "%.4f" p.l2s_seconds;
         ])
       points)
