(* Terminal bar charts.

   Figures 6a/6b and the interaction plots of Figure 7 are grouped bar charts
   (x axis: goal join / goal size; one bar per strategy).  The bench harness
   renders the same shape as horizontal ASCII bars so the reproduction can be
   eyeballed against the paper without a plotting stack. *)

type group = { label : string; values : (string * float) list }

let bar_width = 40

let render_grouped ~title ~value_label groups =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%s\n" title);
  let vmax =
    List.fold_left
      (fun acc g -> List.fold_left (fun a (_, v) -> Float.max a v) acc g.values)
      0. groups
  in
  let vmax = if vmax <= 0. then 1. else vmax in
  let series_w =
    List.fold_left
      (fun acc g ->
        List.fold_left (fun a (s, _) -> max a (String.length s)) acc g.values)
      0 groups
  in
  List.iter
    (fun g ->
      Buffer.add_string buf (Printf.sprintf "  %s\n" g.label);
      List.iter
        (fun (series, v) ->
          let n = int_of_float (Float.round (v /. vmax *. float_of_int bar_width)) in
          let n = if v > 0. && n = 0 then 1 else n in
          Buffer.add_string buf
            (Printf.sprintf "    %-*s |%s %.3g\n" series_w series
               (String.make n '#') v))
        g.values;
      Buffer.add_char buf '\n')
    groups;
  Buffer.add_string buf
    (Printf.sprintf "  (bar length ∝ %s; full bar = %.3g)\n" value_label vmax);
  Buffer.contents buf
