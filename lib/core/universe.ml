(* The quotient of the Cartesian product D = R_0 × … × R_{k-1} by the
   T-signature (k = 2 in the paper; any k >= 2 here).

   Whether a tuple is informative, certain, or selected by any predicate
   depends only on T(t) (Lemmas 3.3/3.4), so two tuples with equal
   signatures are interchangeable for inference.  The engine therefore
   groups D into equivalence classes, each carrying its signature, its
   multiplicity in D and one representative vector of row indexes.  This
   is also the paper's own observation in §5.3 ("if two tuples are
   selected by the same most specific join predicate, then they are
   basically equivalent w.r.t. the inference process") and is what makes
   TPC-H-sized products tractable. *)

module Bits = Jqi_util.Bits
module Obs = Jqi_obs.Obs
module Dict = Jqi_relational.Dict
module Relation = Jqi_relational.Relation
module Tuple = Jqi_relational.Tuple
module Vec = Jqi_util.Vec

type cls = { signature : Bits.t; count : int; rep : int array }

(* Carried forward along a chain of [apply_delta] calls so each batch
   pays only for the changed rows: the shared dictionary (append-only —
   codes are never recycled, mirroring [Dict]'s contract) and one code
   vector per row per relation.  Lazily built on the first delta; rows
   of unchanged relations share their arrays across universes. *)
type delta_cache = { dict : Dict.t; codes : int array array array }

type t = {
  omega : Omega.t;
  classes : cls array;
  total : int;  (* |D|; the sum of class multiplicities *)
  relations : Relation.t array option;
  (* Memoized on first use; single-writer like the relations it encodes
     (the server mutates universes only under its catalog shard lock). *)
  mutable cache : delta_cache option;
}

exception Kary_too_large of { work : int; limit : int }

(* [Bits.hash] is a multiply-add fold, so bits above a table's index
   width never reach the bucket index and wide signatures differing only
   in high bits pile into a few buckets.  Every class table here hashes
   through this finalizer (splitmix64's, with 62-bit constants), which
   spreads each input bit over the low bits.  [Bits.hash] itself stays a
   plain fold: the State/Entropy memo tables key on it and measured
   slower with the extra mixing. *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3f58476d1ce4e5b9 in
  let h = (h lxor (h lsr 29)) * 0x14cb94d049bb1331 in
  h lxor (h lsr 32)

module H = Hashtbl.Make (struct
  type t = Bits.t

  let equal = Bits.equal
  let hash s = mix (Bits.hash s)
end)

(* Lexicographically smaller of two same-length representative vectors —
   the deterministic merge rule every builder shares. *)
let rep_min a b =
  let rec go i =
    if i >= Array.length a then a
    else if a.(i) < b.(i) then a
    else if a.(i) > b.(i) then b
    else go (i + 1)
  in
  go 0

let of_signature_list ?relations omega sigs =
  let k = Omega.n_relations omega in
  (match relations with
  | Some rels ->
      if not (Int.equal (Array.length rels) k) then
        invalid_arg "Universe: need one relation per Omega relation"
  | None -> ());
  let acc = H.create 64 in
  List.iter
    (fun (signature, count, rep) ->
      if count <= 0 then invalid_arg "Universe: class multiplicity must be positive";
      if not (Int.equal (Array.length rep) k) then
        invalid_arg "Universe: representative must have one row index per relation";
      match H.find_opt acc signature with
      | Some (c, r) -> H.replace acc signature (c + count, r)
      | None -> H.replace acc signature (count, rep))
    sigs;
  let classes =
    H.fold (fun signature (count, rep) l -> { signature; count; rep } :: l) acc []
    |> List.sort (fun a b -> Bits.compare a.signature b.signature)
    |> Array.of_list
  in
  let total = Array.fold_left (fun s c -> s + c.count) 0 classes in
  { omega; classes; total; relations; cache = None }

(* Ω over the relations in order, one block per edge (every relation
   pair by default), named after the relations so goals can say
   "rel.attr". *)
let omega_of ?edges rels =
  Omega.of_schemas_kary ?edges
    (Array.to_list
       (Array.map (fun r -> (Relation.name r, Relation.schema r)) rels))

(* Every builder's precondition: at least two relations, none empty. *)
let check_relations ~entry rels =
  if Array.length rels < 2 then invalid_arg (entry ^ ": need at least two relations");
  Array.iter
    (fun r ->
      if Relation.cardinality r = 0 then
        invalid_arg (entry ^ ": empty Cartesian product"))
    rels

(* The reference per-pair scan: every tuple of R × P gets its own
   [Tsig.of_tuples] call and bitset.  Kept as the executable definition
   and as the differential oracle for the binary kernel below. *)
let build_naive r p =
  Obs.span "universe.build_naive" @@ fun () ->
  let rels = [| r; p |] in
  check_relations ~entry:"Universe.build_naive" rels;
  let omega = omega_of rels in
  let acc = H.create 256 in
  let nr = Relation.cardinality r and np = Relation.cardinality p in
  for i = 0 to nr - 1 do
    let tr = Relation.row r i in
    for j = 0 to np - 1 do
      let s = Tsig.of_tuples omega tr (Relation.row p j) in
      match H.find_opt acc s with
      | Some (c, rep) -> H.replace acc s (c + 1, rep)
      | None -> H.replace acc s (1, [| i; j |])
    done
  done;
  of_signature_list ~relations:rels omega
    (H.fold (fun s (c, rep) l -> (s, c, rep) :: l) acc [])

(* ---------------- profile-quotient construction ------------------- *)

(* The quotient-first constructor exploits two levels of redundancy the
   per-pair scan ignores:

   1. Value dictionary: every cell of R and P is interned into one shared
      dense code space ([Jqi_relational.Dict]) replicating [Value.eq], so
      matching is integer equality on flat arrays instead of
      tag-dispatching on boxed [Value.t].

   2. Row profiles: two rows with the same code vector produce the same
      signature against *every* partner row, so it suffices to compute
      signatures for distinct-profile pairs and add multiplicity
      |profile_R| × |profile_P| per pair.

   The signatures themselves come from [binary_kernel] below, whose work
   follows the matches rather than the d_R·d_P profile pairs.

   The result is identical to [build_naive]: same classes and counts by
   construction, and the same representatives because the full-scan rep of
   a class is its lexicographically smallest pair (i, j), which for a
   profile pair (a, b) — whose members are all combinations of a's rows
   with b's rows — is (first row of a, first row of b), min-merged across
   the profile pairs sharing a signature. *)

module Profile = struct
  type t = int array

  let equal a b =
    Int.equal (Array.length a) (Array.length b)
    &&
    let rec go i = i >= Array.length a || (Int.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash a = Array.fold_left (fun acc c -> (acc * 31) + c + 2) 17 a
end

module PH = Hashtbl.Make (Profile)

(* The binary kernel's class table: keyed by a signature's word array,
   probed with one reused key so only a new class allocates. *)
module W = Hashtbl.Make (struct
  type t = int array

  let equal = Profile.equal
  let hash a = mix (Array.fold_left (fun acc w -> (acc * 486187739) + w) 0 a)
end)

type profile = { codes : int array; mutable multiplicity : int; first_row : int }

(* Group a relation's rows by code vector, in first-seen (i.e.
   ascending first-row) order; [first_row] is the smallest row index of
   the group because rows are scanned in ascending order.

   Streaming: one [Dict.iter_encoded] pass over the relation, so a
   paged relation is grouped directly off its heap-file scan under the
   buffer pool's page budget — memory is bounded by the number of
   *distinct* profiles, never by the row count.  The reused code
   buffer is copied only on first sight of a profile. *)
let stream_profiles dict rel =
  let tbl = PH.create (max 16 (min 65536 (Relation.cardinality rel))) in
  let order = Vec.create () in
  Dict.iter_encoded dict rel (fun i codes ->
      match PH.find_opt tbl codes with
      | Some prof -> prof.multiplicity <- prof.multiplicity + 1
      | None ->
          let codes = Array.copy codes in
          let prof = { codes; multiplicity = 1; first_row = i } in
          PH.add tbl codes prof;
          Vec.push order prof);
  Vec.to_array order

let c_dict_values = Obs.Counter.make "universe.dict_values"
let c_profiles_r = Obs.Counter.make "universe.profiles_r"
let c_profiles_p = Obs.Counter.make "universe.profiles_p"
let c_profile_pairs = Obs.Counter.make "universe.profile_pairs"
let c_pairs_skipped = Obs.Counter.make "universe.pairs_skipped"
let c_pairs_touched = Obs.Counter.make "universe.pairs_touched"

type kclass = { mutable k_count : int; mutable rep_r : int; mutable rep_p : int }

(* The binary quotient kernel: the classes of rprofs × pprofs, as
   (signature, multiplicity, representative) triples for
   [of_signature_list].  Both profile arrays are in ascending first-row
   order; [n_codes] bounds every code, [m] is P's arity and bit (x, y)
   sits at x·m + y.

   Instead of comparing every profile pair, P's profiles are indexed as
   code → (P-profile, column) postings.  Each R-profile [a] follows the
   postings of its codes and ORs the matching bits into a per-P-profile
   scratch slice; only the P-profiles it touched are looked up in the
   class table, and the slice is cleared as it is read.  The untouched
   P-profiles all have the empty signature, so they cost one
   multiplication: mult(a)·(|P| − Σ touched multiplicities).

   Representatives: R-profiles run in ascending first-row order, so the
   first one with an untouched partner owns the empty class's minimum,
   paired with its smallest untouched P-profile; every other class
   min-merges (first row of a, first row of b) as two ints.  NULL/NaN
   cells carry negative codes and are never posted or probed.

   Cost O((|R|+|P|)·arity + postings visited + touched pairs · words)
   after profiling, against d_R·d_P·|Ω| for the pair loop. *)
let binary_kernel ~n_codes ~m ~width rprofs pprofs =
  let words = Bits.word_count width and bpw = Bits.bits_per_word in
  let np = Array.length pprofs in
  let start = Array.make (n_codes + 1) 0 in
  Array.iter
    (fun b ->
      Array.iter (fun c -> if c >= 0 then start.(c + 1) <- start.(c + 1) + 1) b.codes)
    pprofs;
  for c = 1 to n_codes do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let post_prof = Array.make start.(n_codes) 0 in
  let post_col = Array.make start.(n_codes) 0 in
  let fill = Array.sub start 0 n_codes in
  Array.iteri
    (fun bi b ->
      Array.iteri
        (fun y c ->
          if c >= 0 then begin
            let k = fill.(c) in
            post_prof.(k) <- bi;
            post_col.(k) <- y;
            fill.(c) <- k + 1
          end)
        b.codes)
    pprofs;
  let p_rows = Array.fold_left (fun s b -> s + b.multiplicity) 0 pprofs in
  let scratch = Array.make (np * words) 0 in
  (* [stamp.(bi)] is the last R-profile that touched P-profile [bi]. *)
  let stamp = Array.make np (-1) in
  let touched = Array.make np 0 in
  let key = Array.make words 0 in
  let tbl = W.create 256 in
  let empty_count = ref 0 and empty_rep = ref [||] and n_touched = ref 0 in
  Array.iteri
    (fun ai a ->
      let nt = ref 0 in
      Array.iteri
        (fun x c ->
          if c >= 0 then
            for k = start.(c) to start.(c + 1) - 1 do
              let bi = post_prof.(k) in
              if not (Int.equal stamp.(bi) ai) then begin
                stamp.(bi) <- ai;
                touched.(!nt) <- bi;
                incr nt
              end;
              let bit = (x * m) + post_col.(k) in
              let w = (bi * words) + (bit / bpw) in
              scratch.(w) <- scratch.(w) lor (1 lsl (bit mod bpw))
            done)
        a.codes;
      let touched_rows = ref 0 in
      for t = 0 to !nt - 1 do
        let b = pprofs.(touched.(t)) in
        touched_rows := !touched_rows + b.multiplicity;
        let base = touched.(t) * words in
        Array.blit scratch base key 0 words;
        Array.fill scratch base words 0;
        let mult = a.multiplicity * b.multiplicity in
        match W.find_opt tbl key with
        | Some cl ->
            cl.k_count <- cl.k_count + mult;
            if a.first_row < cl.rep_r
               || (Int.equal a.first_row cl.rep_r && b.first_row < cl.rep_p)
            then begin
              cl.rep_r <- a.first_row;
              cl.rep_p <- b.first_row
            end
        | None ->
            W.add tbl (Array.copy key)
              { k_count = mult; rep_r = a.first_row; rep_p = b.first_row }
      done;
      n_touched := !n_touched + !nt;
      let untouched = p_rows - !touched_rows in
      if untouched > 0 then begin
        empty_count := !empty_count + (a.multiplicity * untouched);
        if Int.equal (Array.length !empty_rep) 0 then begin
          let j = ref 0 in
          while Int.equal stamp.(!j) ai do
            incr j
          done;
          empty_rep := [| a.first_row; pprofs.(!j).first_row |]
        end
      end)
    rprofs;
  Obs.Counter.add c_pairs_touched !n_touched;
  let sigs =
    W.fold
      (fun words cl l ->
        (Bits.of_words width words, cl.k_count, [| cl.rep_r; cl.rep_p |]) :: l)
      tbl []
  in
  if !empty_count > 0 then (Bits.empty width, !empty_count, !empty_rep) :: sigs
  else sigs

let merge_into acc s count rep =
  match H.find_opt acc s with
  | Some (c, rep') -> H.replace acc s (c + count, rep_min rep rep')
  | None -> H.add acc s (count, rep)

(* The k = 2 builder.  Its span keeps the historical name, which
   traces and the wire benchmark read. *)
let build_pair omega r p =
  Obs.span "universe.build_quotient" @@ fun () ->
  let nr = Relation.cardinality r and np = Relation.cardinality p in
  let dict = Dict.create ~size:(nr + np) () in
  let rprofs = stream_profiles dict r in
  let pprofs = stream_profiles dict p in
  Obs.Counter.add c_dict_values (Dict.size dict);
  Obs.Counter.add c_profiles_r (Array.length rprofs);
  Obs.Counter.add c_profiles_p (Array.length pprofs);
  let n_pairs = Array.length rprofs * Array.length pprofs in
  Obs.Counter.add c_profile_pairs n_pairs;
  Obs.Counter.add c_pairs_skipped ((nr * np) - n_pairs);
  binary_kernel ~n_codes:(Dict.size dict) ~m:(Omega.arity_at omega 1)
    ~width:(Omega.width omega) rprofs pprofs
  |> of_signature_list ~relations:[| r; p |] omega

(* ---------------- k >= 3 construction ----------------------------- *)

let c_kary_profiles = Obs.Counter.make "universe.kary_profiles"
let c_kary_work = Obs.Counter.make "universe.kary_work"
let c_kary_collapsed = Obs.Counter.make "universe.kary_collapsed"

(* The reference k-way scan: one [Tsig.of_ktuples] per raw tuple of
   ∏ R_i — the executable definition of the universe at any k and the
   differential oracle for [build].  Exponential in k; tests and benches
   only. *)
let build_kary_naive ?edges rels =
  Obs.span "universe.build_kary_naive" @@ fun () ->
  let rels = Array.of_list rels in
  check_relations ~entry:"Universe.build_kary_naive" rels;
  let k = Array.length rels in
  let omega = omega_of ?edges rels in
  let acc = H.create 256 in
  let tuples = Array.make k (Relation.row rels.(0) 0) in
  let rep = Array.make k 0 in
  let rec scan d =
    if Int.equal d k then begin
      let s = Tsig.of_ktuples omega tuples in
      match H.find_opt acc s with
      | Some (c, r) -> H.replace acc s (c + 1, r)
      | None -> H.replace acc s (1, Array.copy rep)
    end
    else
      for i = 0 to Relation.cardinality rels.(d) - 1 do
        tuples.(d) <- Relation.row rels.(d) i;
        rep.(d) <- i;
        scan (d + 1)
      done
  in
  scan 0;
  of_signature_list ~relations:rels omega
    (H.fold (fun s (c, r) l -> (s, c, r) :: l) acc [])

(* The k >= 3 builder: profile grouping per relation (as in the binary
   kernel), then a trie walk over distinct-profile k-tuples in the
   leapfrog spirit — relations are levels, profiles are keys, and whole
   subtrees collapse instead of being enumerated.  Two collapses apply:

   1. Profile quotient: ∏|R_i| raw tuples shrink to at most ∏ d_i
      distinct-profile combinations, each merged with the product of the
      profile multiplicities.

   2. Disconnected-suffix collapse: walking relations left to right, when
      none of the codes of the profiles chosen so far appears in any
      remaining relation joined to them by an edge of Ω, no further
      cross bits can be produced — the walk folds in the precomputed
      *suffix universe* (classes of R_j × … × R_{k-1} alone) in one step
      per suffix class rather than descending.  Suffix universes are
      built bottom-up by the same walk, so the construction is one pass
      of k stages.

   Block signatures are computed only for the blocks of Ω and cached per
   (block, profile pair), so each is computed once even though the walk
   revisits it on every branch — this is where the "pairwise binary
   composition" reuse lives.

   Identical to [build_kary_naive] by the same argument as the binary
   kernel: same classes and counts by construction, and representatives
   are min-merged lexicographically smallest row vectors.

   [limit] bounds the number of class merges (the unit of real work); a
   walk exceeding it raises [Kary_too_large] — the typed refusal for
   products whose quotient is still too big. *)
let default_kary_limit = 20_000_000

let build_walk ~limit omega rels =
  Obs.span "universe.build_kary" @@ fun () ->
  let k = Array.length rels in
  let width = Omega.width omega in
  let total_rows = Array.fold_left (fun s r -> s + Relation.cardinality r) 0 rels in
  let dict = Dict.create ~size:total_rows () in
  let profs = Array.map (fun r -> stream_profiles dict r) rels in
  Array.iter (fun ps -> Obs.Counter.add c_kary_profiles (Array.length ps)) profs;
  (* Which codes appear anywhere in each relation. *)
  let rel_codes =
    Array.map
      (fun ps ->
        let h = Hashtbl.create 64 in
        Array.iter
          (fun p ->
            Array.iter (fun c -> if c >= 0 then Hashtbl.replace h c ()) p.codes)
          ps;
        h)
      profs
  in
  (* The blocks of Ω as adjacency: each relation's edge neighbours, and
     per relation j the blocks (i, j) ending there with their offsets. *)
  let nbrs = Array.make k [] and into = Array.make k [] in
  Array.iter
    (fun (i, j, base) ->
      nbrs.(i) <- j :: nbrs.(i);
      nbrs.(j) <- i :: nbrs.(j);
      into.(j) <- (i, base) :: into.(j))
    (Omega.blocks omega);
  (* Per profile, the bitmask of edge neighbours sharing at least one
     code. *)
  let touch =
    Array.mapi
      (fun i ps ->
        Array.map
          (fun p ->
            let m = ref 0 in
            Array.iter
              (fun c ->
                if c >= 0 then
                  List.iter
                    (fun j ->
                      if Hashtbl.mem rel_codes.(j) c then m := !m lor (1 lsl j))
                    nbrs.(i))
              p.codes;
            !m)
          ps)
      profs
  in
  let suffix_mask =
    Array.init (k + 1) (fun j ->
        let m = ref 0 in
        for i = j to k - 1 do
          m := !m lor (1 lsl i)
        done;
        !m)
  in
  (* Cached block signatures, keyed by profile-index pair. *)
  let block_tbl = Array.init k (fun _ -> Array.init k (fun _ -> Hashtbl.create 16)) in
  let block_sig i a j b base =
    let tbl = block_tbl.(i).(j) in
    let key = (a * Array.length profs.(j)) + b in
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
        let ci = profs.(i).(a).codes and cj = profs.(j).(b).codes in
        let m = Array.length cj in
        let s =
          Bits.build width (fun set ->
              for x = 0 to Array.length ci - 1 do
                let c = ci.(x) in
                if c >= 0 then
                  for y = 0 to m - 1 do
                    if Int.equal c cj.(y) then set (base + (x * m) + y)
                  done
              done)
        in
        Hashtbl.add tbl key s;
        s
  in
  let work = ref 0 in
  let bump () =
    incr work;
    if !work > limit then raise (Kary_too_large { work = !work; limit })
  in
  (* [rep_of rev_prefix len suffix_rep]: the reversed prefix rows (length
     [len]) followed by a suffix representative. *)
  let rep_of rev_prefix len suffix_rep =
    let arr = Array.make (len + Array.length suffix_rep) 0 in
    List.iteri (fun idx v -> arr.(len - 1 - idx) <- v) rev_prefix;
    Array.blit suffix_rep 0 arr len (Array.length suffix_rep);
    arr
  in
  (* suffix.(m): classes of R_m × … × R_{k-1} alone, as full-width
     signatures (their bits live in suffix blocks only) with suffix-length
     representatives.  suffix.(k) is the neutral element.  [cur.(i)] is
     the profile the walk has chosen for relation i (m ≤ i < j). *)
  let suffix = Array.make (k + 1) [] in
  suffix.(k) <- [ (Bits.empty width, 1, [||]) ];
  let cur = Array.make k 0 in
  for m = k - 1 downto 0 do
    let acc = H.create 256 in
    let rec walk j sig_ mult rep_rev touched =
      if Int.equal j k then begin
        bump ();
        merge_into acc sig_ mult (rep_of rep_rev (j - m) [||])
      end
      else if Int.equal (touched land suffix_mask.(j)) 0 then begin
        Obs.Counter.add c_kary_collapsed 1;
        List.iter
          (fun (s, c, srep) ->
            bump ();
            merge_into acc (Bits.union sig_ s) (mult * c) (rep_of rep_rev (j - m) srep))
          suffix.(j)
      end
      else
        Array.iteri
          (fun bidx b ->
            let sig' =
              List.fold_left
                (fun s (i, base) ->
                  if i >= m then Bits.union s (block_sig i cur.(i) j bidx base)
                  else s)
                sig_ into.(j)
            in
            cur.(j) <- bidx;
            walk (j + 1) sig' (mult * b.multiplicity) (b.first_row :: rep_rev)
              (touched lor touch.(j).(bidx)))
          profs.(j)
    in
    Array.iteri
      (fun aidx a ->
        cur.(m) <- aidx;
        walk (m + 1) (Bits.empty width) a.multiplicity [ a.first_row ]
          touch.(m).(aidx))
      profs.(m);
    suffix.(m) <- H.fold (fun s (c, rep) l -> (s, c, rep) :: l) acc []
  done;
  Obs.Counter.add c_kary_work !work;
  of_signature_list ~relations:rels omega suffix.(0)

(* Arity picks the builder: the kernel handles exactly one relation
   pair (whose only possible edge set is the pair itself), the walk any
   longer list. *)
let build ?(limit = default_kary_limit) ?edges rels =
  let rels = Array.of_list rels in
  check_relations ~entry:"Universe.build" rels;
  let omega = omega_of ?edges rels in
  match rels with
  | [| r; p |] -> build_pair omega r p
  | _ -> build_walk ~limit omega rels

(* Approximate universe for products too large to scan (the paper's §1:
   "the database instances may be too big to be skimmed"): draw [tuples]
   uniform random row vectors instead of enumerating the product, one
   [Prng.int] per relation in order.  Signatures that never come up in
   the sample are invisible, so the inference result is only guaranteed
   instance-equivalent on the sampled sub-product; rare signatures
   (small join ratio contributions) are the ones at risk.

   The representative of a class is the lexicographically smallest
   sampled member ([rep_min], not keep-first-drawn): reps then depend only
   on the sampled *set* of tuples, never on the order the PRNG produced
   them — the same determinism contract [build] satisfies, and a sample
   covering the whole product reproduces its universe exactly. *)
let build_sampled prng ~tuples rels =
  if tuples <= 0 then invalid_arg "Universe.build_sampled: need a positive sample size";
  let rels = Array.of_list rels in
  check_relations ~entry:"Universe.build_sampled" rels;
  let k = Array.length rels in
  let ns = Array.map Relation.cardinality rels in
  let omega = omega_of rels in
  let acc = H.create 256 in
  let row_tuples = Array.make k (Relation.row rels.(0) 0) in
  for _ = 1 to tuples do
    let rep = Array.init k (fun d -> Jqi_util.Prng.int prng ns.(d)) in
    for d = 0 to k - 1 do
      row_tuples.(d) <- Relation.row rels.(d) rep.(d)
    done;
    merge_into acc (Tsig.of_ktuples omega row_tuples) 1 rep
  done;
  of_signature_list ~relations:rels omega
    (H.fold (fun s (c, r) l -> (s, c, r) :: l) acc [])

(* ---------------- incremental maintenance under churn -------------- *)

(* [apply_delta] maintains Ω instead of rebuilding it.  The key fact is
   that a tuple combination's signature depends only on its cell values
   (never on row positions or dictionary code values), so churn on one
   relation only does count arithmetic on the class table:

     U_new  =  U_old  −  (removed rows × partners)  +  (added rows × partners)

   Each contribution is computed through the same profile quotient the
   builders use — removed/added rows group into profiles, partners group
   into profiles, and one signature per distinct-profile combination
   carries the product of multiplicities.  A batch of b changed rows
   against partners with d distinct profiles costs O(rows) integer
   re-grouping plus O(b_profiles · d) signatures, against the builder's
   O(d_R · d_P) — the updates/s gap `bench churn` measures.

   Representatives stay lexicographically smallest:
   - survivors renumber monotonically (new = old − #removed below), so a
     surviving rep is still the minimum over the surviving members;
   - added combinations min-merge their candidate vectors in, and a
     signature unseen before can only arise from added rows, so minted
     classes take the add-side minimum;
   - a class whose rep row was deleted is "damaged": a targeted repair
     pass re-scans all profile combinations but merges reps only for
     damaged signatures — one signature phase, no re-encoding, and only
     when a deletion actually hit a representative.  On k = 2 the pass
     is [binary_kernel] over the post-delta profiles, so it pays for the
     matching pairs only, like a fresh [build].

   Classes whose multiplicity reaches zero retire; any signature going
   negative, or a remove that matches no row, raises [Invalid_argument].
   The result is byte-identical to a from-scratch [build] on the
   post-delta relations (test/test_churn.ml pins this
   differentially on random edit scripts, Mem and Paged). *)

module Delta = Jqi_relational.Delta

(* Mutable per-class adjustment; [a_rep = None] marks damage. *)
type adj = { mutable a_count : int; mutable a_rep : int array option }

let ensure_cache t rels =
  match t.cache with
  | Some c -> c
  | None ->
      let total_rows =
        Array.fold_left (fun s r -> s + Relation.cardinality r) 0 rels
      in
      let dict = Dict.create ~size:total_rows () in
      let codes = Array.map (fun r -> Dict.encode_rows dict r) rels in
      let c = { dict; codes } in
      t.cache <- Some c;
      c

(* Group a code matrix into profiles (first-seen order, like
   [stream_profiles], but over already-encoded rows — integer hashing
   only). *)
let group_codes codes =
  let tbl = PH.create (max 16 (min 65536 (Array.length codes))) in
  let order = Vec.create () in
  Array.iteri
    (fun i cv ->
      match PH.find_opt tbl cv with
      | Some prof -> prof.multiplicity <- prof.multiplicity + 1
      | None ->
          let prof = { codes = cv; multiplicity = 1; first_row = i } in
          PH.add tbl cv prof;
          Vec.push order prof)
    codes;
  Vec.to_array order

(* Position of [x] among the sorted [removed] indexes: [None] when [x]
   itself was removed, else [Some] of its post-delta index. *)
let renumber removed x =
  let lo = ref 0 and hi = ref (Array.length removed) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if removed.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length removed && Int.equal removed.(!lo) x then None
  else Some (x - !lo)

let apply_delta t deltas =
  Obs.span "universe.apply_delta" @@ fun () ->
  let rels =
    match t.relations with
    | Some rels -> Array.copy rels
    | None ->
        invalid_arg "Universe.apply_delta: universe was built without relations"
  in
  let k = Array.length rels in
  let cache = ensure_cache t rels in
  let codes = Array.copy cache.codes in
  let dict = cache.dict in
  let tbl = H.create (max 64 (2 * Array.length t.classes)) in
  Array.iter
    (fun c ->
      H.replace tbl c.signature
        { a_count = c.count; a_rep = Some (Array.copy c.rep) })
    t.classes;
  (* Enumerate distinct-profile combinations with relation [ridx] pinned
     to [dprof]; [f] receives the code vectors, the multiplicity product
     and the first-row vector (a fresh candidate rep must copy it). *)
  let with_combos profs ridx dprof f =
    let vecs = Array.make k [||] and frows = Array.make k 0 in
    vecs.(ridx) <- dprof.codes;
    frows.(ridx) <- dprof.first_row;
    let rec go j mult =
      if Int.equal j k then f vecs mult frows
      else if Int.equal j ridx then go (j + 1) mult
      else
        Array.iter
          (fun p ->
            vecs.(j) <- p.codes;
            frows.(j) <- p.first_row;
            go (j + 1) (mult * p.multiplicity))
          profs.(j)
    in
    go 0 dprof.multiplicity
  in
  let step (ridx, d) =
    if ridx < 0 || ridx >= k then
      invalid_arg "Universe.apply_delta: no such relation";
    if not (Delta.is_empty d) then begin
      let removed = Relation.resolve_removes rels.(ridx) d in
      let add_codes = Dict.intern_delta dict d in
      let old_codes = codes.(ridx) in
      let n_removed = Array.length removed in
      let survivors = Array.length old_codes - n_removed in
      let new_codes = Array.make (survivors + Array.length add_codes) [||] in
      let w = ref 0 and j = ref 0 in
      Array.iteri
        (fun i cv ->
          if !j < n_removed && Int.equal removed.(!j) i then incr j
          else begin
            new_codes.(!w) <- cv;
            incr w
          end)
        old_codes;
      Array.iteri (fun i cv -> new_codes.(survivors + i) <- cv) add_codes;
      let partner_profs =
        Array.mapi
          (fun ji cm -> if Int.equal ji ridx then [||] else group_codes cm)
          codes
      in
      (* minus: removed rows re-join into profile groups and decrement *)
      let xprofs = group_codes (Array.map (fun i -> old_codes.(i)) removed) in
      Array.iter
        (fun xp ->
          with_combos partner_profs ridx xp (fun vecs mult _frows ->
              let s = Tsig.of_kcodes t.omega vecs in
              match H.find_opt tbl s with
              | Some a when a.a_count >= mult -> a.a_count <- a.a_count - mult
              | Some _ | None ->
                  invalid_arg
                    "Universe.apply_delta: delta inconsistent with the universe"))
        xprofs;
      (* retire emptied classes before adds can re-mint their signature *)
      let retired =
        H.fold (fun s a acc -> if Int.equal a.a_count 0 then s :: acc else acc)
          tbl []
      in
      List.iter (H.remove tbl) retired;
      (* renumber surviving reps; a rep that lost its row is damaged *)
      if n_removed > 0 then
        H.iter
          (fun _ a ->
            match a.a_rep with
            | None -> ()
            | Some rep -> (
                match renumber removed rep.(ridx) with
                | Some x -> rep.(ridx) <- x
                | None -> a.a_rep <- None))
          tbl;
      (* plus: added rows land in existing classes or mint new ones *)
      let aprofs =
        Array.map
          (fun p -> { p with first_row = survivors + p.first_row })
          (group_codes add_codes)
      in
      Array.iter
        (fun ap ->
          with_combos partner_profs ridx ap (fun vecs mult frows ->
              let s = Tsig.of_kcodes t.omega vecs in
              match H.find_opt tbl s with
              | Some a ->
                  a.a_count <- a.a_count + mult;
                  (match a.a_rep with
                  | Some rep -> a.a_rep <- Some (rep_min rep (Array.copy frows))
                  | None -> ())
              | None ->
                  H.replace tbl s
                    { a_count = mult; a_rep = Some (Array.copy frows) }))
        aprofs;
      (* targeted rep repair: one signature pass over all combinations,
         merging only damaged signatures *)
      let damaged = H.create 8 in
      H.iter
        (fun s a -> if Option.is_none a.a_rep then H.replace damaged s ())
        tbl;
      if H.length damaged > 0 then begin
        let all_profs = Array.copy partner_profs in
        all_profs.(ridx) <- group_codes new_codes;
        let repair s rep =
          if H.mem damaged s then
            match H.find_opt tbl s with
            | Some ({ a_rep = Some rep'; _ } as a) -> a.a_rep <- Some (rep_min rep' rep)
            | Some ({ a_rep = None; _ } as a) -> a.a_rep <- Some rep
            | None -> ()
        in
        if Int.equal k 2 then
          (* The kernel's class reps are already the minimum over every
             member, so each damaged class takes its rep directly. *)
          List.iter
            (fun (s, _, rep) -> repair s rep)
            (binary_kernel ~n_codes:(Dict.size dict)
               ~m:(Omega.arity_at t.omega 1) ~width:(Omega.width t.omega)
               all_profs.(0) all_profs.(1))
        else
          Array.iter
            (fun p0 ->
              with_combos all_profs 0 p0 (fun vecs _mult frows ->
                  let s = Tsig.of_kcodes t.omega vecs in
                  repair s (Array.copy frows)))
            all_profs.(0)
      end;
      codes.(ridx) <- new_codes;
      (* The relation update comes last, after the class arithmetic has
         validated the delta: on a paged backend this mutates the backing
         store in place, so an inconsistent delta must raise before it. *)
      rels.(ridx) <- Relation.apply_delta rels.(ridx) d
    end
  in
  List.iter step deltas;
  let sigs =
    H.fold
      (fun s a acc ->
        match a.a_rep with
        | Some rep -> (s, a.a_count, rep) :: acc
        | None -> invalid_arg "Universe.apply_delta: unrepaired class")
      tbl []
  in
  (match sigs with
  | [] -> invalid_arg "Universe.apply_delta: empty Cartesian product"
  | _ :: _ -> ());
  let u = of_signature_list ~relations:rels t.omega sigs in
  u.cache <- Some { dict; codes };
  u

let omega t = t.omega
let classes t = t.classes
let n_classes t = Array.length t.classes
let cls t i = t.classes.(i)
let total_tuples t = t.total
let n_relations t = Omega.n_relations t.omega

let relations t = Option.map Array.copy t.relations
let signature t i = t.classes.(i).signature
let count t i = t.classes.(i).count

(* The representative tuples of a class, one per relation, when the
   universe was built from actual relations (interactive display). *)
let representative t i =
  Option.map
    (fun rels -> Array.mapi (fun d ri -> Relation.row rels.(d) ri) t.classes.(i).rep)
    t.relations

(* [classes] is sorted by [Bits.compare] (see [of_signature_list]), so
   membership is a binary search. *)
let find_class t signature =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = lo + ((hi - lo) / 2) in
      let c = Bits.compare t.classes.(mid).signature signature in
      if c = 0 then Some mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t.classes)

(* Classes selected by θ: exactly those whose signature contains θ. *)
let selected_classes t theta =
  let out = ref [] in
  for i = Array.length t.classes - 1 downto 0 do
    if Tsig.selects theta t.classes.(i).signature then out := i :: !out
  done;
  !out

(* Two predicates are instance-equivalent (§3.3) iff they select the same
   classes of D. *)
let equivalent t theta1 theta2 =
  let n = Array.length t.classes in
  let rec go i =
    i >= n
    || Bool.equal
         (Tsig.selects theta1 t.classes.(i).signature)
         (Tsig.selects theta2 t.classes.(i).signature)
       && go (i + 1)
  in
  go 0

(* Join ratio (§5.3): the average size of the distinct (unique) most
   specific join predicates occurring in D. *)
let join_ratio t =
  let n = Array.length t.classes in
  if n = 0 then 0.
  else
    let sum =
      Array.fold_left (fun s c -> s + Bits.cardinal c.signature) 0 t.classes
    in
    float_of_int sum /. float_of_int n

(* Distinct signatures, i.e. the lattice nodes that have corresponding
   tuples (boxed nodes of Figure 4). *)
let signatures t = Array.to_list (Array.map (fun c -> c.signature) t.classes)

let pp ppf t =
  Fmt.pf ppf "@[<v>universe: |D|=%d, %d signature classes, join ratio %.3f"
    t.total (n_classes t) (join_ratio t);
  Array.iteri
    (fun i c ->
      Fmt.pf ppf "@,  #%d %a ×%d" i (Omega.pp_pred t.omega) c.signature c.count)
    t.classes;
  Fmt.pf ppf "@]"
