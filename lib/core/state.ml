(* Mutable inference state over the signature quotient.

   Tracks the current sample in the compact form that Lemmas 3.3/3.4 need:
   T(S+) and the signatures of negative examples.  All the certain /
   informative tests of §3.4 run against this state in
   O(classes × negatives) bitset operations. *)

module Bits = Jqi_util.Bits
module Obs = Jqi_obs.Obs

(* Certain-tuple closures: one counter tick per whole-universe certainty
   scan / per incremental view extension, not per class — the per-class
   subset tests are the hot path the <2% overhead budget protects. *)
let c_certainty_scans = Obs.Counter.make "state.certainty_scans"
let c_view_extends = Obs.Counter.make "state.view_extends"
let c_labels = Obs.Counter.make "state.labels"

exception Inconsistent of { class_id : int; label : Sample.label }

type t = {
  universe : Universe.t;
  mutable tpos : Bits.t;       (* T(S+); Ω while S+ is empty *)
  mutable negs : Bits.t list;  (* distinct signatures of negative examples *)
  labels : Sample.label option array;
  mutable history : (int * Sample.label) list;  (* newest first *)
}

let create universe =
  {
    universe;
    tpos = Omega.full (Universe.omega universe);
    negs = [];
    labels = Array.make (Universe.n_classes universe) None;
    history = [];
  }

let copy t =
  {
    universe = t.universe;
    tpos = t.tpos;
    negs = t.negs;
    labels = Array.copy t.labels;
    history = t.history;
  }

let universe t = t.universe
let tpos t = t.tpos
let negatives t = t.negs
let history t = List.rev t.history
let n_interactions t = List.length t.history
let label_of t i = t.labels.(i)

(* Lemma 3.3: t ∈ Cert+(S) iff T(S+) ⊆ T(t). *)
let certain_pos_sig ~tpos s = Bits.subset tpos s

(* Lemma 3.4: t ∈ Cert−(S) iff ∃ t' ∈ S−. T(S+) ∩ T(t) ⊆ T(t').  The
   fused test allocates nothing: it runs once per class in every
   informative-class scan and positive view extension. *)
let rec certain_neg_sig ~tpos ~negs s =
  match negs with
  | [] -> false
  | neg :: negs -> Bits.inter_subset tpos s neg || certain_neg_sig ~tpos ~negs s

let certain_label_sig ~tpos ~negs s =
  if certain_pos_sig ~tpos s then Some Sample.Positive
  else if certain_neg_sig ~tpos ~negs s then Some Sample.Negative
  else None

let certain_label t i =
  certain_label_sig ~tpos:t.tpos ~negs:t.negs (Universe.signature t.universe i)

let informative t i = certain_label t i = None

let informative_classes t =
  Obs.Counter.incr c_certainty_scans;
  let out = ref [] in
  for i = Universe.n_classes t.universe - 1 downto 0 do
    if informative t i then out := i :: !out
  done;
  !out

let has_informative t =
  let n = Universe.n_classes t.universe in
  let rec go i = i < n && (informative t i || go (i + 1)) in
  go 0

let has_positive t = List.exists (fun (_, l) -> l = Sample.Positive) t.history

(* Algorithm 1 lines 6-7: labeling against a certain label would make the
   sample inconsistent. *)
let label t i lbl =
  Obs.Counter.incr c_labels;
  (match certain_label t i with
  | Some certain when certain <> lbl -> raise (Inconsistent { class_id = i; label = lbl })
  | _ -> ());
  let s = Universe.signature t.universe i in
  (match lbl with
  | Sample.Positive -> t.tpos <- Bits.inter t.tpos s
  | Sample.Negative ->
      if not (List.exists (Bits.equal s) t.negs) then t.negs <- s :: t.negs);
  t.labels.(i) <- Some lbl;
  t.history <- (i, lbl) :: t.history

(* Number of tuples of D that are uninformative (= certain, Lemma 3.2)
   under a hypothetical sample (T(S+), negatives).  Tuple-weighted: a class
   counts with its multiplicity, matching the paper's u± over D. *)
let uninf_tuples_with u ~tpos ~negs =
  let acc = ref 0 in
  Array.iter
    (fun (c : Universe.cls) ->
      if certain_label_sig ~tpos ~negs c.signature <> None then
        acc := !acc + c.count)
    (Universe.classes u);
  !acc

let uninf_tuples t = uninf_tuples_with t.universe ~tpos:t.tpos ~negs:t.negs

(* Hypothetical sample obtained by adding labeled signatures to [t],
   without mutating it.  Used by the reference lookahead engine. *)
let extend_virtual t extras =
  List.fold_left
    (fun (tpos, negs) (s, lbl) ->
      match lbl with
      | Sample.Positive -> (Bits.inter tpos s, negs)
      | Sample.Negative -> (tpos, s :: negs))
    (t.tpos, t.negs) extras

(* Canonical form of a hypothetical sample: two samples with equal keys
   have the same Cert+/Cert− sets (Lemmas 3.3/3.4 depend only on T(S+)
   and on the ⊆-maximal negative signatures restricted to T(S+)), hence
   the same informative classes and the same game/lookahead values.  The
   minimax solver and the fast lookahead engine both memoize on it. *)
module Key = struct
  type t = { tpos : Bits.t; negs : Bits.t list }

  let canonical ~tpos ~negs =
    let restricted = List.map (Bits.inter tpos) negs in
    let maximal =
      List.filter
        (fun s ->
          not
            (List.exists
               (fun s' -> (not (Bits.equal s s')) && Bits.subset s s')
               restricted))
        restricted
    in
    let distinct =
      List.fold_left
        (fun acc s -> if List.exists (Bits.equal s) acc then acc else s :: acc)
        [] maximal
    in
    { tpos; negs = List.sort Bits.compare distinct }

  let equal a b = Bits.equal a.tpos b.tpos && List.equal Bits.equal a.negs b.negs

  let hash k =
    List.fold_left (fun acc s -> (acc * 31) + Bits.hash s) (Bits.hash k.tpos) k.negs
end

(* Views: hypothetical samples with an incrementally-maintained informative
   set.  Certainty is monotone in the sample, so extending a view by one
   label only ever needs to re-test the classes informative so far — and a
   negative label leaves T(S+) unchanged, so only the new negative can
   capture a previously informative class (one subset test each).  This is
   what replaces the per-branch full rescans of the lookahead inner loop. *)
type view = {
  vtpos : Bits.t;
  vnegs : Bits.t list;
  vinf : int list;   (* informative class ids, ascending *)
  vinf_tuples : int; (* count-weighted |vinf| *)
}

let view t =
  let u = t.universe in
  let vinf = informative_classes t in
  let vinf_tuples =
    List.fold_left (fun acc i -> acc + Universe.count u i) 0 vinf
  in
  { vtpos = t.tpos; vnegs = t.negs; vinf; vinf_tuples }

let view_extend t v (s, lbl) =
  Obs.Counter.incr c_view_extends;
  let u = t.universe in
  match lbl with
  | Sample.Negative ->
      (* T(S+) unchanged: a surviving class is still not certain-positive
         and still escapes every old negative; only the new negative can
         newly capture it (Lemma 3.4). *)
      let vinf, vinf_tuples =
        List.fold_left
          (fun (acc, w) i ->
            if Bits.inter_subset v.vtpos (Universe.signature u i) s then (acc, w)
            else (i :: acc, w + Universe.count u i))
          ([], 0) v.vinf
      in
      { v with vnegs = s :: v.vnegs; vinf = List.rev vinf; vinf_tuples }
  | Sample.Positive ->
      let vtpos = Bits.inter v.vtpos s in
      let vinf, vinf_tuples =
        List.fold_left
          (fun (acc, w) i ->
            if
              certain_label_sig ~tpos:vtpos ~negs:v.vnegs
                (Universe.signature u i)
              = None
            then (i :: acc, w + Universe.count u i)
            else (acc, w))
          ([], 0) v.vinf
      in
      { vtpos; vnegs = v.vnegs; vinf = List.rev vinf; vinf_tuples }

let view_key v = Key.canonical ~tpos:v.vtpos ~negs:v.vnegs

(* The inferred predicate at any point is T(S+) (§3.3). *)
let inferred t = t.tpos

(* The sample is consistent iff T(S+) selects no negative example. *)
let consistent t =
  List.for_all (fun neg -> not (Bits.subset t.tpos neg)) t.negs

let pp ppf t =
  Fmt.pf ppf "@[<v>state: %d interactions, T(S+)=%a, %d negatives, %d informative left@]"
    (n_interactions t)
    (Omega.pp_pred (Universe.omega t.universe))
    t.tpos (List.length t.negs)
    (List.length (informative_classes t))
