(* Summary statistics for experiment results.

   The paper's synthetic results (Figure 7, Table 1) are averages over 100
   runs; this module provides the aggregation used when reproducing them. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let mean xs =
  match Array.length xs with
  | 0 -> nan
  | n -> Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let percentile xs p =
  (* NaN and out-of-range ranks previously indexed outside the sorted
     array (p < 0 gave lo = -1, p > 100 gave hi = n); both are caller
     bugs, so reject them instead of clamping silently. *)
  if Float.is_nan p || p < 0. || p > 100. then
    invalid_arg (Printf.sprintf "Stats.percentile: p = %g not in [0,100]" p);
  match Array.length xs with
  | 0 -> nan
  | n ->
      let sorted = Array.copy xs in
      Array.sort Float.compare sorted;
      if n = 1 then sorted.(0)
      else begin
        let rank = p /. 100. *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = int_of_float (ceil rank) in
        let frac = rank -. float_of_int lo in
        (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
      end

let quantile xs q =
  if Float.is_nan q || q < 0. || q > 1. then
    invalid_arg (Printf.sprintf "Stats.quantile: q = %g not in [0,1]" q);
  percentile xs (q *. 100.)

let median xs = percentile xs 50.

let min_max xs =
  match Array.length xs with
  | 0 -> (nan, nan)
  | _ ->
      Array.fold_left
        (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
        (xs.(0), xs.(0))
        xs

let summarize xs =
  let min, max = min_max xs in
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min;
    max;
    median = median xs;
  }

let of_ints xs = Array.map float_of_int xs
