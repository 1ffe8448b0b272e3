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
let c_bounded = Obs.Counter.make "lookahead.candidates_bounded"

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
(* around five ideas:                                                   *)
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
(* 5. Candidate bounds at k = 2 ([bounds]): an upper bound on each      *)
(*    candidate's min orders the round and skips hopeless candidates.   *)
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
  p_word : int array; (* position k of P: the Ω word it lies in ... *)
  p_mask : int array; (* ... and its bit there; P in increasing order *)
  p_w : int;          (* words per row: [Bits.word_count |P|] *)
  p_ids : int array;  (* root vinf, ascending *)
  p_rows : int array; (* row r: T(p_ids.(r)) projected, stride p_w *)
}

(* OR the projection of [s] onto P into [dst] at word offset [off]. *)
let project_into pr s dst off =
  for k = 0 to Array.length pr.p_word - 1 do
    if Bits.word s pr.p_word.(k) land pr.p_mask.(k) <> 0 then begin
      let o = off + (k / Bits.bits_per_word) in
      dst.(o) <- dst.(o) lor (1 lsl (k mod Bits.bits_per_word))
    end
  done

(* P is read off word by word: the OR of the root signatures' word j,
   masked by T(S+)'s, holds the positions of P in that word. *)
let projection state (root : State.view) =
  let u = State.universe state in
  let ids = Array.of_list root.State.vinf in
  let tpos = root.State.vtpos in
  let words = ref [] and masks = ref [] in
  for j = 0 to Bits.word_count (Bits.width tpos) - 1 do
    let live =
      Array.fold_left (fun acc i -> acc lor Bits.word (Universe.signature u i) j) 0 ids
      land Bits.word tpos j
    in
    let rest = ref live in
    while !rest <> 0 do
      let low = !rest land - !rest in
      words := j :: !words;
      masks := low :: !masks;
      rest := !rest lxor low
    done
  done;
  let p_word = Array.of_list (List.rev !words) in
  let p_mask = Array.of_list (List.rev !masks) in
  let w = Bits.word_count (Array.length p_word) in
  let rows = Array.make (Array.length ids * w) 0 in
  let pr = { p_word; p_mask; p_w = w; p_ids = ids; p_rows = rows } in
  Array.iteri (fun r i -> project_into pr (Universe.signature u i) rows (r * w)) ids;
  pr

type evaluator = {
  ev_state : State.t;
  ev_k : int;            (* top-level lookahead depth *)
  ev_root : State.view;
  ev_w0 : int;           (* tuple weight of the root informative set *)
  ev_memo : t Memo.t;
  ev_bbest : t BTbl.t;   (* last-level branch values, see [branch_best] *)
  ev_proj : projection Lazy.t; (* forced by the first [branch_best] *)
}

let evaluator state root k =
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
   (EXPERIMENTS.md, "Lookahead acceleration").

   The scan stops at (∞,∞), since nothing beats it and the stop is exact.
   It also stops once the running best's min reaches [cut]; the result is
   then a lower bound that the caller only uses to discard the branch. *)
let branch_best ev ~view ~cut =
  Obs.Counter.incr c_branch_scans;
  let u = State.universe ev.ev_state in
  let pr = Lazy.force ev.ev_proj in
  let w = pr.p_w in
  let tpos = Array.make w 0 in
  project_into pr view.State.vtpos tpos 0;
  let n_negs = List.length view.State.vnegs in
  let negs = Array.make (n_negs * w) 0 in
  List.iteri (fun m s -> project_into pr s negs (m * w)) view.State.vnegs;
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
  let ev = evaluator state (State.view state) k in
  eval ev ~view:ev.ev_root ~vkey:(State.view_key ev.ev_root) ~k cls

let entropy1 state cls = entropy_k state 1 cls
(* Upper bounds on the entropy² min of the root candidates, aligned with
   [p_ids] (k = 2 only).

   In a branch view V a leaf j scores min(u+, u−) =
   W0 − k − W(V) + min(g+, g−), where g± is the weight of the classes of
   V that labeling j ± makes certain.  A class certain under both answers
   has restricted(i) ⊑ restricted(j) (the negative capture), and also
   restricted(j) ⊑ restricted(i) or restricted(i) inside an old negative.
   The latter would make i certain-negative in V already, so the overlap
   lies in E_j, the classes whose restricted row equals j's.  Hence
   g+ + g− ≤ W(V) + W(E_j), and the leaf's min is at most
   W0 − k − ⌈(W(V) − W(E_j)) / 2⌉.

   A candidate's value is at most its negative branch's.  Labeling c
   negative keeps T(S+), so the restricted rows of V_c⁻ are the root's
   rows and its groups E_j lie inside the root's groups, each weighing at
   most E0, the heaviest root group.  V_c⁻ keeps the classes with
   r_i ⋢ r_c, so

     UB(c) = W0 − k − ⌈max(0, W(V_c⁻) − E0) / 2⌉

   (W(E_j) ≤ W(V) allows the clamp), or +∞ when V_c⁻ is empty and the
   negative branch is worth (∞,∞).  One pass over pairs of root rows gives
   W(V_c⁻) for every c and E0.  Rows of every width share one call-free
   word loop: a separate plain-int copy for one-word rows did not
   measurably win (EXPERIMENTS.md, "Lookahead acceleration"). *)
let bounds ev =
  let pr = Lazy.force ev.ev_proj in
  let u = State.universe ev.ev_state in
  let w = pr.p_w and rows = pr.p_rows in
  let n = Array.length pr.p_ids in
  let counts = Array.map (Universe.count u) pr.p_ids in
  let kept = Array.make n 0 and e0 = ref 0 in
  for c = 0 to n - 1 do
    let survivors = ref 0 and group = ref 0 in
    for i = 0 to n - 1 do
      (* r_i ⋢ r_c, else whether r_i = r_c *)
      let out = ref false and eq = ref true in
      for b = 0 to w - 1 do
        let ri = rows.((i * w) + b) and rc = rows.((c * w) + b) in
        if ri land lnot rc <> 0 then out := true;
        if ri <> rc then eq := false
      done;
      if !out then survivors := !survivors + counts.(i)
      else if !eq then group := !group + counts.(i)
    done;
    kept.(c) <- !survivors;
    e0 := max !e0 !group
  done;
  Array.map
    (fun kept ->
      if kept = 0 then max_int
      else ev.ev_w0 - ev.ev_k - ((max 0 (kept - !e0) + 1) / 2))
    kept

let upper_bounds state =
  let root = State.view state in
  match root.State.vinf with
  | [] -> []
  | classes ->
      List.combine classes (Array.to_list (bounds (evaluator state root 2)))

(* Score one candidate at top level with Algorithm 4's selection-level
   pruning: the chosen class maximizes the entropy min, so a candidate
   whose min is provably below the best min seen so far can neither win
   nor tie, and gets [None].  Three tests prove it, cheapest first:
   - its bound [ub] is below [best_lo], so nothing is scanned;
   - the first branch's min is below [best_lo], so the second is skipped;
   - the exact value is below [best_lo].
   Exact values update [best_lo].

   A bound below W0 − k means the negative branch is narrow, and it
   usually decides the worst case over the answer.  It is then scanned
   first, and the positive branch stops as soon as its running min
   exceeds the negative one: ties go to the positive branch, hence the
   cut e_neg.lo + 1.  Such a bound is finite, so V_c⁻ is nonempty and
   e_neg.lo + 1 cannot overflow. *)
let worst e_pos e_neg = if e_pos.lo <= e_neg.lo then e_pos else e_neg

let score_candidate ev ~best_lo ~ub cls =
  let e =
    if ub < !best_lo then begin
      Obs.Counter.incr c_bounded;
      None
    end
    else if ev.ev_k <= 1 then begin
      let s = sig_of ev cls in
      let vp = State.view_extend ev.ev_state ev.ev_root (s, Sample.Positive) in
      let u_pos = ev.ev_w0 - vp.State.vinf_tuples - 1 in
      if u_pos < !best_lo then None
      else
        let vn = State.view_extend ev.ev_state ev.ev_root (s, Sample.Negative) in
        Some (make u_pos (ev.ev_w0 - vn.State.vinf_tuples - 1))
    end
    else begin
      let s = sig_of ev cls and view = ev.ev_root and k = ev.ev_k in
      let e =
        if ub < ev.ev_w0 - k then begin
          let e_neg = branch ev ~view ~k (s, Sample.Negative) ~cut:max_int in
          if e_neg.lo < !best_lo then e_neg
          else worst (branch ev ~view ~k (s, Sample.Positive) ~cut:(e_neg.lo + 1)) e_neg
        end
        else begin
          let e_pos = branch ev ~view ~k (s, Sample.Positive) ~cut:max_int in
          if e_pos.lo < !best_lo then e_pos
          else worst e_pos (branch ev ~view ~k (s, Sample.Negative) ~cut:e_pos.lo)
        end
      in
      if e.lo < !best_lo then None else Some e
    end
  in
  (match e with
  | Some e ->
      Obs.Counter.incr c_scored;
      best_lo := max !best_lo e.lo
  | None -> Obs.Counter.incr c_pruned);
  e

(* Entropy^k of every informative class of [state], ascending class order.
   [None] marks a candidate pruned as strictly worse (its entropy min is
   below another candidate's): pruned entries can never be the skyline
   best nor tie with it, so selection over the [Some] entries chooses
   exactly the class the reference engine does, whatever order the
   candidates are scored in.  They are scored in descending bound order:
   high bounds raise [best_lo] early, and once a bound falls below it
   every later candidate is discarded unscanned.  At k ≠ 2 every bound
   is +∞ and the order is ascending class order. *)
let score state ~k =
  let root = State.view state in
  match root.State.vinf with
  | [] -> []
  | classes ->
      let ev = evaluator state root k in
      let cands = Array.of_list classes in
      let n = Array.length cands in
      let ub = if k = 2 then bounds ev else Array.make n max_int in
      (* Insertion sort, stable, so equal bounds keep ascending class
         order; a round whose bounds are all +∞ costs one pass. *)
      let order = Array.init n Fun.id in
      for r = 1 to n - 1 do
        let x = order.(r) and j = ref (r - 1) in
        while !j >= 0 && ub.(order.(!j)) < ub.(x) do
          order.(!j + 1) <- order.(!j);
          decr j
        done;
        order.(!j + 1) <- x
      done;
      let scores = Array.make n None in
      let best_lo = ref min_int in
      Array.iter
        (fun r -> scores.(r) <- score_candidate ev ~best_lo ~ub:ub.(r) cands.(r))
        order;
      List.mapi (fun r cls -> (cls, scores.(r))) classes
