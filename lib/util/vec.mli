(** Growable arrays (doubling vectors) for accumulating outputs of unknown
    size with amortized O(1) [push] — the replacement for the
    [list ref]/[List.rev]/[Array.of_list] accumulation pattern in the join
    evaluators.  Not thread-safe. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val push : 'a t -> 'a -> unit

(** Raises [Invalid_argument] outside [0, length). *)
val get : 'a t -> int -> 'a

(** Forget the contents; capacity is kept. *)
val clear : 'a t -> unit

(** Fresh array of the [length] pushed elements, in push order. *)
val to_array : 'a t -> 'a array

val iter : ('a -> unit) -> 'a t -> unit
