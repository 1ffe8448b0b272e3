(** Summary statistics for experiment results (Figure 7 / Table 1 averages). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation *)
  min : float;
  max : float;
  median : float;
}

val mean : float array -> float

(** Sample variance (n-1 denominator); 0 for fewer than two points. *)
val variance : float array -> float

val stddev : float array -> float

(** [percentile xs p] with linear interpolation.  [nan] on the empty
    array; the single sample on a singleton for every [p].
    @raise Invalid_argument when [p] is NaN or outside [0,100]. *)
val percentile : float array -> float -> float

(** [quantile xs q] = [percentile xs (q *. 100.)].
    @raise Invalid_argument when [q] is NaN or outside [0,1]. *)
val quantile : float array -> float -> float

val median : float array -> float
val min_max : float array -> float * float
val summarize : float array -> summary
val of_ints : int array -> float array
