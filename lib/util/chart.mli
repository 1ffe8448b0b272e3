(** Terminal bar charts, used to render the interaction figures (6a/6b and
    Figure 7's plots) as horizontal ASCII bars. *)

type group = { label : string; values : (string * float) list }

(** Grouped horizontal bars, scaled to the global maximum; zero values get
    an empty bar, tiny positive values at least one mark. *)
val render_grouped : title:string -> value_label:string -> group list -> string
