(* Strategies for presenting tuples to the user (§4).

   A strategy maps the current inference state to the class of D it wants
   labeled next, or [None] when no informative tuple remains (the halt
   condition Γ of Algorithm 1). *)

module Bits = Jqi_util.Bits
module Prng = Jqi_util.Prng
module Obs = Jqi_obs.Obs

let c_choices = Obs.Counter.make "strategy.choices"

type t = { name : string; choose : State.t -> int option }

let make name choose = { name; choose }
let name t = t.name

let choose t state =
  Obs.Counter.incr c_choices;
  t.choose state

let sig_of state i = Universe.signature (State.universe state) i
let size_of state i = Bits.cardinal (sig_of state i)

(* RND: a uniformly random informative tuple (the baseline of §4.1). *)
let rnd prng =
  make "RND" (fun state ->
      match State.informative_classes state with
      | [] -> None
      | is -> Some (Prng.pick_list prng is))

let min_by f = function
  | [] -> None
  | x :: xs ->
      Some
        (fst
           (List.fold_left
              (fun (bx, bv) y ->
                let v = f y in
                if v < bv then (y, v) else (bx, bv))
              (x, f x) xs))

(* BU (Algorithm 2): an informative tuple with the smallest |T(t)| — walk
   the lattice from ∅ upward. *)
let bu_choose state =
  min_by (size_of state) (State.informative_classes state)

let bu = make "BU" bu_choose

(* TD (Algorithm 3): while no positive example has been given, ask about
   tuples whose signature is ⊆-maximal in D; afterwards behave like BU. *)
let td_choose state =
  if State.has_positive state then bu_choose state
  else begin
    let u = State.universe state in
    let all_sigs = Universe.signatures u in
    let is_maximal s =
      not
        (List.exists
           (fun s' -> (not (Bits.equal s s')) && Bits.subset s s')
           all_sigs)
    in
    match
      List.filter (fun i -> is_maximal (sig_of state i))
        (State.informative_classes state)
    with
    | [] -> bu_choose state
    | i :: _ -> Some i
  end

let td = make "TD" td_choose

(* Shared skeleton of the lookahead-skyline strategies (Algorithms 4/6):
   score every informative tuple with an entropy, keep those achieving the
   maximal min on the skyline, return one of them. *)
let skyline_choose entropy_of state =
  match State.informative_classes state with
  | [] -> None
  | is ->
      let scored = List.map (fun i -> (i, entropy_of state i)) is in
      let best = Entropy.best (List.map snd scored) in
      Option.bind best (fun e ->
          List.find_map
            (fun (i, ei) -> if Entropy.equal ei e then Some i else None)
            scored)

(* Same selection over the fast engine's round scores.  Pruned candidates
   ([None]) are strictly worse than some exact one, so the best entropy
   and the first class achieving it are those of [skyline_choose] over the
   reference engine — the property pinned by the differential suite. *)
let skyline_choose_fast k state =
  let scored = Entropy.score state ~k in
  let best = Entropy.best (List.filter_map snd scored) in
  Option.bind best (fun e ->
      List.find_map
        (fun (i, ei) ->
          match ei with
          | Some ei when Entropy.equal ei e -> Some i
          | _ -> None)
        scored)

let l1s = make "L1S" (skyline_choose_fast 1)
let l2s = make "L2S" (skyline_choose_fast 2)

(* LkS for arbitrary lookahead depth (the paper evaluates k ≤ 2 and notes
   the generalization). *)
let lks k =
  if k < 1 then invalid_arg "Strategy.lks: k must be >= 1";
  make (Printf.sprintf "L%dS" k) (skyline_choose_fast k)

(* LkS over the reference engine — the differential oracle's strategies. *)
let lks_reference k =
  if k < 1 then invalid_arg "Strategy.lks_reference: k must be >= 1";
  make
    (Printf.sprintf "L%dS-ref" k)
    (skyline_choose (fun st i -> Entropy.reference_k st k i))

(* IGS (extension; the paper's §7 suggests probabilistic lookahead as
   future work): estimate, by sampling predicates uniformly from C(S), the
   probability p that a tuple is selected by the goal, and ask about the
   tuple whose split is most balanced — maximal expected halving of the
   version space.  Sampling is rejection-free: C(S) is exactly the subsets
   of T(S+) that select no negative example, so we draw subsets of T(S+)
   and filter. *)
let igs ?(samples = 256) prng =
  make "IGS" (fun state ->
      match State.informative_classes state with
      | [] -> None
      | is ->
          let tpos = State.tpos state in
          let negs = State.negatives state in
          let positions = Array.of_list (Bits.elements tpos) in
          let width = Bits.width tpos in
          let consistent = ref [] in
          let n_consistent = ref 0 in
          let attempts = samples * 4 in
          let tries = ref 0 in
          while !n_consistent < samples && !tries < attempts do
            incr tries;
            let theta =
              Array.fold_left
                (fun acc pos -> if Prng.bool prng then Bits.add acc pos else acc)
                (Bits.empty width) positions
            in
            if List.for_all (fun n -> not (Bits.subset theta n)) negs then begin
              consistent := theta :: !consistent;
              incr n_consistent
            end
          done;
          let thetas = !consistent in
          if thetas = [] then
            (* Degenerate sample: fall back to the local choice. *)
            bu_choose state
          else begin
            let score i =
              let s = sig_of state i in
              let sel =
                List.fold_left
                  (fun acc th -> if Bits.subset th s then acc + 1 else acc)
                  0 thetas
              in
              let n = List.length thetas in
              min sel (n - sel)
            in
            min_by (fun i -> -score i) is
          end)

(* Hybrid (extension): TD's cheap maximal-node sweep while no positive
   example exists, then the expensive lookahead once the search is framed.
   Motivated by the §5.3 discussion — TD's strength is the no-positive
   phase, L2S's the refinement phase — so the hybrid buys most of L2S's
   interaction savings at a fraction of its cost. *)
let hybrid =
  make "TD+L2S" (fun state ->
      if State.has_positive state then choose l2s state else choose td state)

let all ?(prng_seed = 42) () =
  [ rnd (Prng.create prng_seed); bu; td; l1s; l2s ]

(* Strategy lookup by the spelling the CLI and the protocol share. *)
let of_name ?(seed = 42) name =
  match String.lowercase_ascii (String.trim name) with
  | "bu" -> Some bu
  | "td" -> Some td
  | "l1s" -> Some l1s
  | "l2s" -> Some l2s
  (* "td+l2s" is [Strategy.name hybrid] — accepted so persisted sessions
     (which store the display name) resolve back to the strategy. *)
  | "hybrid" | "td+l2s" -> Some hybrid
  | "rnd" -> Some (rnd (Prng.create seed))
  | "igs" -> Some (igs (Prng.create seed))
  | _ -> None
