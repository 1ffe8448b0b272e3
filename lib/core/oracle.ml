(* User models for the interactive scenario (§3.2).

   The paper assumes a user who labels tuples consistently with a goal
   predicate θG; [honest] is that user.  [noisy] flips labels with a given
   probability to exercise the inconsistency detection of Algorithm 1.  A
   real human answers through [Engine] instead (the CLI reads the label
   from stdin). *)

module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng

type t = { name : string; label : Universe.t -> int -> Sample.label }

let name t = t.name
let label t universe cls = t.label universe cls

(* The honest user: t is positive iff θG ⊆ T(t). *)
let honest ~goal =
  {
    name = "honest";
    label =
      (fun u i ->
        if Tsig.selects goal (Universe.signature u i) then Sample.Positive
        else Sample.Negative);
  }

let flip = function Sample.Positive -> Sample.Negative | Sample.Negative -> Sample.Positive

(* A user who answers wrongly with probability [error_rate]. *)
let noisy prng ~error_rate base =
  {
    name = Printf.sprintf "noisy(%.2f,%s)" error_rate base.name;
    label =
      (fun u i ->
        let l = base.label u i in
        if Prng.float prng 1.0 < error_rate then flip l else l);
  }

(* Majority vote of [2k+1] independent draws from the base oracle — the
   standard crowdsourcing redundancy scheme (§1/§7 motivate the whole
   inference problem with crowd pricing).  With a noisy base of error rate
   p, the effective error rate drops to P[Binomial(2k+1, p) > k]. *)
let majority ~votes base =
  if votes < 1 || votes mod 2 = 0 then
    invalid_arg "Oracle.majority: vote count must be odd and positive";
  {
    name = Printf.sprintf "majority(%d,%s)" votes base.name;
    label =
      (fun u i ->
        let positives = ref 0 in
        for _ = 1 to votes do
          if base.label u i = Sample.Positive then incr positives
        done;
        if 2 * !positives > votes then Sample.Positive else Sample.Negative);
  }
