(* Entropy of informative tuples (§4.4).

   entropy_S(t) = (min(u+, u−), max(u+, u−)) where u±(t) is the number of
   tuples of D that become uninformative when t is labeled ±.  Lookahead
   depth k generalizes the paper's entropy² (Algorithm 5); (∞,∞) encodes
   "labeling ends the interaction", matching Algorithm 5 lines 3-5.

   Certainty is monotone in the sample (C(S') ⊆ C(S) when S ⊆ S'), so
   tuples uninformative w.r.t. S stay so under any extension; all the
   Uninf(S ∪ …) \ Uninf(S) counts below therefore only ever scan the
   classes informative w.r.t. the current state, which is what keeps the
   lookahead affordable on TPC-H-sized universes.

   Counting convention: the paper's u± values exclude the queried tuples
   themselves — its Figure 5 reports u⁺ = 11 for labeling the ∅-signature
   tuple positively, which certifies all 12 tuples of D0; and the §4.4
   walk-through yields E = {(3,3)} only under that convention.  We follow
   the paper. *)

module Bits = Jqi_util.Bits
module Obs = Jqi_obs.Obs

(* Lookahead-engine counters (doc/OBSERVABILITY.md glossary). *)
let c_memo_hit = Obs.Counter.make "lookahead.memo_hit"
let c_memo_miss = Obs.Counter.make "lookahead.memo_miss"
let c_branch_cache_hit = Obs.Counter.make "lookahead.branch_cache_hit"
let c_branch_cache_miss = Obs.Counter.make "lookahead.branch_cache_miss"
let c_branch_scans = Obs.Counter.make "lookahead.branch_scans"
let c_leaf_evals = Obs.Counter.make "lookahead.leaf_evals"
let c_scored = Obs.Counter.make "lookahead.candidates_scored"
let c_pruned = Obs.Counter.make "lookahead.candidates_pruned"

type t = { lo : int; hi : int }

let infinity = { lo = max_int; hi = max_int }
let make a b = if a <= b then { lo = a; hi = b } else { lo = b; hi = a }
let is_infinite e = e.lo = max_int

let equal a b = a.lo = b.lo && a.hi = b.hi

(* e dominates e' iff both components are ≥. *)
let dominates a b = a.lo >= b.lo && a.hi >= b.hi

(* Entropies not dominated by any *other* entropy of the set.  Duplicates
   are collapsed first so that equal entropies do not knock each other out. *)
let skyline es =
  let distinct =
    List.fold_left (fun acc e -> if List.exists (equal e) acc then acc else e :: acc) [] es
  in
  List.filter
    (fun e ->
      not (List.exists (fun e' -> (not (equal e e')) && dominates e' e) distinct))
    distinct

let pp ppf e =
  let comp ppf v = if v = max_int then Fmt.string ppf "∞" else Fmt.int ppf v in
  Fmt.pf ppf "(%a,%a)" comp e.lo comp e.hi

(* The paper's selection rule (Algorithm 4 lines 2-3): among a set of
   entropies, the skyline element whose min component is the maximal min.
   When several share that min, keep the largest max. *)
let best es =
  match es with
  | [] -> None
  | es -> (
      let m = List.fold_left (fun acc e -> max acc e.lo) min_int es in
      (* The max-lo element is never dominated, so the filter is nonempty. *)
      match List.filter (fun e -> e.lo = m) (skyline es) with
      | [] -> None
      | c :: cs ->
          Some
            (List.fold_left
               (fun acc e -> if e.hi > acc.hi then e else acc)
               c cs))

(* Tuple-weighted count of the classes in [ids] certain under the
   hypothetical sample; [ids] must all be informative w.r.t. [state], so
   the count is exactly |Uninf(S ∪ extras) \ Uninf(S)| in tuples. *)
let count_newly_certain state ~ids ~tpos ~negs =
  let u = State.universe state in
  List.fold_left
    (fun acc i ->
      if State.certain_label_sig ~tpos ~negs (Universe.signature u i) <> None
      then acc + Universe.count u i
      else acc)
    0 ids

(* u±: tuples becoming uninformative under S ∪ extras ∪ {(t,α)}, net of
   the queried tuples themselves (one per element of extras, plus t). *)
let gains state ~ids ~extras signature =
  let depth = List.length extras + 1 in
  let count extras =
    let tpos, negs = State.extend_virtual state extras in
    count_newly_certain state ~ids ~tpos ~negs - depth
  in
  let u_pos = count ((signature, Sample.Positive) :: extras) in
  let u_neg = count ((signature, Sample.Negative) :: extras) in
  (u_pos, u_neg)

(* ------------------------------------------------------------------ *)
(* Reference engine: the direct transcription of Algorithms 4/5, kept   *)
(* as the differential test oracle for the fast engine below.           *)
(* ------------------------------------------------------------------ *)

(* reference entropy^k for k ≥ 1, the recursive generalization of
   Algorithm 5: for k ≥ 2, for each label α of [cls] consider the extended
   sample; if no informative tuple remains the branch is worth (∞,∞);
   otherwise evaluate entropy^{k-1} (still counting gains relative to the
   original S) of every tuple informative in the branch and keep the best;
   finally return the branch value with the smaller min — the worst case
   over the user's answer (Algorithm 5 lines 13-14). *)
let reference_k state k cls =
  let u = State.universe state in
  let ids0 = State.informative_classes state in
  let sig_of i = Universe.signature u i in
  let informative_subset ids extras =
    let tpos, negs = State.extend_virtual state extras in
    List.filter
      (fun i -> State.certain_label_sig ~tpos ~negs (sig_of i) = None)
      ids
  in
  let rec eval_tuple ~ids ~extras ~k cls =
    if k <= 1 then
      let u_pos, u_neg = gains state ~ids:ids0 ~extras (sig_of cls) in
      make u_pos u_neg
    else
      let branch alpha =
        let extras' = (sig_of cls, alpha) :: extras in
        match informative_subset ids extras' with
        | [] -> infinity
        | is ->
            let es =
              List.map (fun i -> eval_tuple ~ids:is ~extras:extras' ~k:(k - 1) i) is
            in
            (* [is] is nonempty, so [best] returns [Some]. *)
            Option.value ~default:infinity (best es)
      in
      let e_pos = branch Sample.Positive in
      let e_neg = branch Sample.Negative in
      if e_pos.lo <= e_neg.lo then e_pos else e_neg
  in
  eval_tuple ~ids:ids0 ~extras:[] ~k cls

let reference1 state cls = reference_k state 1 cls

(* ------------------------------------------------------------------ *)
(* Fast engine.  Exact same semantics as [reference_k], restructured    *)
(* around four ideas:                                                   *)
(*                                                                      *)
(* 1. Incremental certainty ([State.view]): branches extend the parent  *)
(*    view by one label instead of re-deriving (tpos, negs) from the    *)
(*    root and rescanning every class — monotone certainty means only   *)
(*    the classes informative so far need re-testing, and a negative    *)
(*    label needs just one subset test per class.  The leaf u± counts   *)
(*    fall out of the view for free: a class of the root informative    *)
(*    set becomes uninformative iff it left the view, so               *)
(*    u = W₀ − W(view′) − depth, tuple-weighted.                        *)
(* 2. Canonical-state memoization: subtree values depend only on the    *)
(*    [State.Key] quotient of the extended sample (plus remaining depth *)
(*    and class), and branches of the T-signature lattice converge to   *)
(*    the same quotient constantly — each is evaluated once.            *)
(* 3. Skyline shortcuts: a branch scan stops at (∞,∞) (nothing beats    *)
(*    it), and the worst-case-over-answers rule lets the second branch  *)
(*    stop as soon as its running best min reaches the first branch's   *)
(*    min — the first branch is then the exact result.                  *)
(* 4. Projected last level: the leaves are scored on flat words over    *)
(*    the round's live Ω positions only ([projection], [branch_best]).  *)
(*                                                                      *)
(* [score] adds the selection-level pruning of Algorithm 4 on top and   *)
(* is what the L1S/L2S/LkS strategies call once per round.              *)
(* ------------------------------------------------------------------ *)

module Memo = Hashtbl.Make (struct
  type t = State.Key.t * int * int (* canonical sample, remaining k, class *)

  let equal (k1, d1, c1) (k2, d2, c2) =
    d1 = d2 && c1 = c2 && State.Key.equal k1 k2

  let hash (k, d, c) = ((State.Key.hash k * 31) + d * 31) + c
end)

module BTbl = Hashtbl.Make (State.Key)

(* Projection of one round onto its live positions
   P = T(S+) ∩ ⋃ { T(i) | i informative at the root }.  Position k of P
   (in increasing Ω order) becomes bit k of a flat row of [p_w] words;
   every root-informative signature is stored projected, so the
   last-level scan ([branch_best]) runs on plain ints.  On the TPC-H
   joins (scale 1) |P| is at most 18 of up to 144 Ω positions: a whole
   row is one word.

   Why the projection is exact.  Views only shrink T(S+) and the
   informative set, so inside a round every view has vtpos ⊆ root T(S+)
   and vinf ⊆ root vinf, and every set the last-level scan tests —
   restricted(i) = vtpos ∩ T(i) for i ∈ vinf, and intersections of such
   sets — lies inside P.  Projection onto P is injective on subsets of P
   and commutes with ∩ and ⊆; for X ⊆ P and any Y, X ⊆ Y iff
   proj X ⊆ proj Y.  So negative signatures may be projected too: their
   bits outside P never decide a test. *)
type projection = {
  p_pos : int array;  (* P, increasing *)
  p_w : int;          (* words per row: [Bits.word_count |P|] *)
  p_ids : int array;  (* root vinf, ascending *)
  p_rows : int array; (* row r: T(p_ids.(r)) projected, stride p_w *)
}

(* OR the projection of [s] onto [pos] into [dst] at word offset [off]. *)
let project_into pos s dst off =
  for k = 0 to Array.length pos - 1 do
    if Bits.mem s pos.(k) then begin
      let o = off + (k / Bits.bits_per_word) in
      dst.(o) <- dst.(o) lor (1 lsl (k mod Bits.bits_per_word))
    end
  done

let projection state (root : State.view) =
  let u = State.universe state in
  let ids = Array.of_list root.State.vinf in
  let live =
    Array.fold_left
      (fun acc i -> Bits.union acc (Universe.signature u i))
      (Bits.empty (Bits.width root.State.vtpos))
      ids
  in
  let pos = Array.of_list (Bits.elements (Bits.inter root.State.vtpos live)) in
  let w = Bits.word_count (Array.length pos) in
  let rows = Array.make (Array.length ids * w) 0 in
  Array.iteri (fun r i -> project_into pos (Universe.signature u i) rows (r * w)) ids;
  { p_pos = pos; p_w = w; p_ids = ids; p_rows = rows }

type evaluator = {
  ev_state : State.t;
  ev_k : int;            (* top-level lookahead depth *)
  ev_root : State.view;
  ev_w0 : int;           (* tuple weight of the root informative set *)
  ev_memo : t Memo.t;
  ev_bbest : t BTbl.t;   (* last-level branch values, see [branch_best] *)
  ev_proj : projection Lazy.t; (* forced by the first [branch_best] *)
}

let evaluator state k =
  let root = State.view state in
  {
    ev_state = state;
    ev_k = k;
    ev_root = root;
    ev_w0 = root.State.vinf_tuples;
    ev_memo = Memo.create 256;
    ev_bbest = BTbl.create 64;
    ev_proj = lazy (projection state root);
  }

let sig_of ev i = Universe.signature (State.universe ev.ev_state) i

(* Leaf u±: every leaf of one evaluator sits at the same depth
   |extras| + 1 = ev_k, so the memo key (view key, 1, cls) is sound. *)
let leaf ev ~view cls =
  Obs.Counter.incr c_leaf_evals;
  let s = sig_of ev cls in
  let vp = State.view_extend ev.ev_state view (s, Sample.Positive) in
  let vn = State.view_extend ev.ev_state view (s, Sample.Negative) in
  make
    (ev.ev_w0 - vp.State.vinf_tuples - ev.ev_k)
    (ev.ev_w0 - vn.State.vinf_tuples - ev.ev_k)

(* Fold [e] into the running branch best; [best es] of a whole branch is
   (max lo, max hi among that lo), so a running (lo, hi) maximum is exact. *)
let fold_best acc e =
  if e.lo > acc.lo then e
  else if e.lo = acc.lo && e.hi > acc.hi then e
  else acc

(* Flat-row tests of the multi-word scan.  Rows are [w] words at word
   offsets into one array [a]; negative rows live in [negs]. *)
let rec rows_subset a ao bo w k =
  k >= w || (a.(ao + k) land lnot a.(bo + k) = 0 && rows_subset a ao bo w (k + 1))

(* a[ao..] ∩ a[bo..] ⊆ negs[no..] *)
let rec rows_inter_subset a ao bo negs no w k =
  k >= w
  || a.(ao + k) land a.(bo + k) land lnot negs.(no + k) = 0
     && rows_inter_subset a ao bo negs no w (k + 1)

(* Some negative row among the first [m + 1] contains a[ao..] ∩ a[bo..]. *)
let rec rows_captured a ao bo negs w m =
  m >= 0
  && (rows_inter_subset a ao bo negs (m * w) w 0
     || rows_captured a ao bo negs w (m - 1))

(* Best leaf entropy over a branch view — the innermost loop of the whole
   lookahead.  Every leaf of the branch is scored against the same
   (tpos, negs), so the scan projects them onto the round's live
   positions once and forms restricted(i) = tpos ∩ T(i) as flat rows.
   With x ⊑ y for row containment, a leaf j
   - labeled negative captures class i iff restricted(i) ⊑ restricted(j)
     (Lemma 3.4: restricted(i) ⊆ T(j), and restricted(i) ⊆ tpos);
   - labeled positive makes class i certain iff
     restricted(j) ⊑ restricted(i) (Lemma 3.3 against the new
     T(S+) = restricted(j)), or some old negative contains
     restricted(i) ∩ restricted(j) (Lemma 3.4).
   See [projection] for why these tests on projected rows are exact.  The
   inner loops allocate nothing and call nothing when a row is one word
   (every TPC-H pair); wider rows take the word-loop helpers above.  The
   one-word loops stay because they measurably win: with only the word
   loops, label-warm wirebench answered 1.5x fewer requests per CPU second
   (EXPERIMENTS.md, "Lookahead acceleration").  The scan stops at (∞,∞) (nothing beats it — the stop is exact) or once the
   running best's min reaches [cut] (a lower bound the caller only uses
   to discard the branch). *)
let branch_best ev ~view ~cut =
  Obs.Counter.incr c_branch_scans;
  let u = State.universe ev.ev_state in
  let pr = Lazy.force ev.ev_proj in
  let w = pr.p_w in
  let tpos = Array.make w 0 in
  project_into pr.p_pos view.State.vtpos tpos 0;
  let n_negs = List.length view.State.vnegs in
  let negs = Array.make (n_negs * w) 0 in
  List.iteri (fun m s -> project_into pr.p_pos s negs (m * w)) view.State.vnegs;
  let n = List.length view.State.vinf in
  let restricted = Array.make (n * w) 0 in
  let counts = Array.make n 0 in
  (* vinf ⊆ root vinf, both ascending: one merge walk finds each row. *)
  let r = ref 0 in
  List.iteri
    (fun j i ->
      while pr.p_ids.(!r) <> i do incr r done;
      counts.(j) <- Universe.count u i;
      for b = 0 to w - 1 do
        restricted.((j * w) + b) <- tpos.(b) land pr.p_rows.((!r * w) + b)
      done)
    view.State.vinf;
  let base = ev.ev_w0 - view.State.vinf_tuples - ev.ev_k in
  let last_neg = n_negs - 1 in
  (* Tuple weight of the classes a leaf labeled negative captures. *)
  let gain_neg j =
    let gain = ref 0 in
    if w = 1 then begin
      let rj = restricted.(j) in
      for i = 0 to n - 1 do
        if restricted.(i) land lnot rj = 0 then gain := !gain + counts.(i)
      done
    end
    else begin
      let jo = j * w in
      for i = 0 to n - 1 do
        if rows_subset restricted (i * w) jo w 0 then gain := !gain + counts.(i)
      done
    end;
    !gain
  in
  (* Tuple weight of the classes a leaf labeled positive makes certain. *)
  let gain_pos j =
    let gain = ref 0 in
    if w = 1 then begin
      let rj = restricted.(j) in
      for i = 0 to n - 1 do
        let ri = restricted.(i) in
        let x = ri land rj in
        let certain = ref (rj land lnot ri = 0) and m = ref last_neg in
        while (not !certain) && !m >= 0 do
          if x land lnot negs.(!m) = 0 then certain := true;
          decr m
        done;
        if !certain then gain := !gain + counts.(i)
      done
    end
    else begin
      let jo = j * w in
      for i = 0 to n - 1 do
        let io = i * w in
        if
          rows_subset restricted jo io w 0
          || rows_captured restricted io jo negs w last_neg
        then gain := !gain + counts.(i)
      done
    end;
    !gain
  in
  (* A leaf whose negative gain already puts its min below the running
     best's cannot replace it, so its positive gain is never needed.
     Skipping it is exact, and label-warm answers 1.7x more requests per
     CPU second with it than without (EXPERIMENTS.md). *)
  let rec go acc j =
    if j >= n || is_infinite acc || acc.lo >= cut then acc
    else
      let u_neg = base + gain_neg j in
      if u_neg < acc.lo then go acc (j + 1)
      else go (fold_best acc (make (base + gain_pos j) u_neg)) (j + 1)
  in
  go (make (base + gain_pos 0) (base + gain_neg 0)) 1

let rec eval ev ~view ~vkey ~k cls =
  let key = (vkey, k, cls) in
  match Memo.find_opt ev.ev_memo key with
  | Some e ->
      Obs.Counter.incr c_memo_hit;
      e
  | None ->
      Obs.Counter.incr c_memo_miss;
      let e =
        if k <= 1 then leaf ev ~view cls
        else begin
          let s = sig_of ev cls in
          let e_pos = branch ev ~view ~k (s, Sample.Positive) ~cut:max_int in
          (* Worst case over the answer keeps the branch with the smaller
             min, so once the negative branch's running best min reaches
             e_pos.lo the result is e_pos exactly. *)
          let e_neg = branch ev ~view ~k (s, Sample.Negative) ~cut:e_pos.lo in
          if e_pos.lo <= e_neg.lo then e_pos else e_neg
        end
      in
      Memo.replace ev.ev_memo key e;
      e

(* Best entropy^{k-1} over the classes left informative after labeling;
   (∞,∞) when none remain (Algorithm 5 lines 3-5).  The scan stops early
   at (∞,∞), or once the running best's min reaches [cut] (the caller
   then discards this branch — see [eval]). *)
and branch ev ~view ~k (s, alpha) ~cut =
  let view' = State.view_extend ev.ev_state view (s, alpha) in
  match view'.State.vinf with
  | [] -> infinity
  | i0 :: rest ->
      if k = 2 then begin
        (* Last level before the leaves: the projected scan, memoized on the
           canonical key.  Cut-truncated scans are lower bounds (only good
           for discarding this branch), so only complete scans — infinity
           is always complete, a scan ending below [cut] ran dry — are
           stored. *)
        let vkey' = State.view_key view' in
        match BTbl.find_opt ev.ev_bbest vkey' with
        | Some e ->
            Obs.Counter.incr c_branch_cache_hit;
            e
        | None ->
            Obs.Counter.incr c_branch_cache_miss;
            let e = branch_best ev ~view:view' ~cut in
            if is_infinite e || e.lo < cut then BTbl.replace ev.ev_bbest vkey' e;
            e
      end
      else
        let vkey' = State.view_key view' in
        let rec go acc = function
          | [] -> acc
          | _ when is_infinite acc || acc.lo >= cut -> acc
          | i :: is ->
              go (fold_best acc (eval ev ~view:view' ~vkey:vkey' ~k:(k - 1) i)) is
        in
        go (eval ev ~view:view' ~vkey:vkey' ~k:(k - 1) i0) rest

(* Drop-in fast entropy^k of a single class (fresh memo per call; use
   [score] to share the memo across a whole candidate round). *)
let entropy_k state k cls =
  let ev = evaluator state k in
  eval ev ~view:ev.ev_root ~vkey:(State.view_key ev.ev_root) ~k cls

let entropy1 state cls = entropy_k state 1 cls
let entropy2 state cls = entropy_k state 2 cls

(* Score one candidate at top level with Algorithm 4's selection-level
   pruning: the chosen class maximizes the entropy min, so once a
   candidate's first branch min drops strictly below the best min seen so
   far its exact value cannot matter — it can neither win nor tie — and
   the second branch is skipped ([None]).  Exact values update
   [best_lo]. *)
let score_candidate ev ~best_lo cls =
  let e =
    if ev.ev_k <= 1 then begin
      let s = sig_of ev cls in
      let vp = State.view_extend ev.ev_state ev.ev_root (s, Sample.Positive) in
      let u_pos = ev.ev_w0 - vp.State.vinf_tuples - 1 in
      if u_pos < !best_lo then None
      else
        let vn = State.view_extend ev.ev_state ev.ev_root (s, Sample.Negative) in
        Some (make u_pos (ev.ev_w0 - vn.State.vinf_tuples - 1))
    end
    else begin
      let s = sig_of ev cls in
      let e_pos = branch ev ~view:ev.ev_root ~k:ev.ev_k (s, Sample.Positive) ~cut:max_int in
      if e_pos.lo < !best_lo then None
      else begin
        let e_neg = branch ev ~view:ev.ev_root ~k:ev.ev_k (s, Sample.Negative) ~cut:e_pos.lo in
        let e = if e_pos.lo <= e_neg.lo then e_pos else e_neg in
        if e.lo < !best_lo then None else Some e
      end
    end
  in
  (match e with
  | Some e ->
      Obs.Counter.incr c_scored;
      best_lo := max !best_lo e.lo
  | None -> Obs.Counter.incr c_pruned);
  (cls, e)

(* Entropy^k of every informative class of [state], ascending class order.
   [None] marks a candidate pruned as strictly worse (its entropy min is
   below another candidate's): pruned entries can never be the skyline
   best nor tie with it, so selection over the [Some] entries chooses
   exactly the class the reference engine does. *)
let score state ~k =
  match (State.view state).State.vinf with
  | [] -> []
  | classes ->
      let ev = evaluator state k in
      let best_lo = ref min_int in
      List.map (score_candidate ev ~best_lo) classes
