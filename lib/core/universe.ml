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
module Vec = Jqi_util.Vec

type cls = { signature : Bits.t; count : int; rep : int array }

(* A row profile: a code vector, how many rows carry it, and the
   smallest of them.  Mutable only while a grouping pass builds it;
   profiles kept in a delta cache are never written again. *)
type profile = { codes : int array; mutable multiplicity : int; first_row : int }

(* One relation slot of a delta cache: the code vector of every row, and
   the rows grouped into profiles in ascending first-row order. *)
type slot = { row_codes : int array array; profs : profile array }

(* Carried forward along a chain of [apply_delta] calls so each batch
   pays only for the changed rows: the shared dictionary (append-only —
   codes are never recycled, mirroring [Dict]'s contract) and one slot
   per relation.  Lazily built on the first delta; slots of unchanged
   relations are shared across universes. *)
type delta_cache = { dict : Dict.t; slots : slot array }

type t = {
  omega : Omega.t;
  classes : cls array;
  total : int;  (* |D|; the sum of class multiplicities *)
  relations : Relation.t array option;
  cache : delta_cache option;
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
   and as the differential oracle for [build] at k = 2. *)
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

(* Every builder below exploits two levels of redundancy the per-tuple
   scans ignore:

   1. Value dictionary: every cell of every relation is interned into one
      shared dense code space ([Jqi_relational.Dict]) replicating
      [Value.eq], so matching is integer equality on flat arrays instead
      of tag-dispatching on boxed [Value.t].

   2. Row profiles: two rows with the same code vector produce the same
      signature against *every* partner row, so it suffices to compute
      signatures for distinct-profile combinations and add the product
      of the profile multiplicities per combination.

   The signatures themselves come from [classes_of] below, whose work
   follows the matches rather than the ∏ d_i profile combinations. *)

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

(* The class table: keyed by a signature's word array, probed with one
   reused key so only a new class allocates. *)
module W = Hashtbl.Make (struct
  type t = int array

  let equal = Profile.equal
  let hash a = mix (Array.fold_left (fun acc w -> (acc * 486187739) + w) 0 a)
end)

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
let c_kary_work = Obs.Counter.make "universe.kary_work"
let c_kary_collapsed = Obs.Counter.make "universe.kary_collapsed"
let c_repair_profiles = Obs.Counter.make "universe.repair_profiles"

(* A relation's profiles indexed as code → (profile, column) postings,
   in CSR form: the postings of code c are [start.(c) .. start.(c+1)-1].
   NULL/NaN cells carry negative codes and are never posted. *)
type postings = { start : int array; prof : int array; col : int array }

let postings ~n_codes profs =
  let start = Array.make (n_codes + 1) 0 in
  Array.iter
    (fun b ->
      Array.iter (fun c -> if c >= 0 then start.(c + 1) <- start.(c + 1) + 1) b.codes)
    profs;
  for c = 1 to n_codes do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let prof = Array.make start.(n_codes) 0 and col = Array.make start.(n_codes) 0 in
  let fill = Array.sub start 0 n_codes in
  Array.iteri
    (fun bi b ->
      Array.iteri
        (fun y c ->
          if c >= 0 then begin
            let q = fill.(c) in
            prof.(q) <- bi;
            col.(q) <- y;
            fill.(c) <- q + 1
          end)
        b.codes)
    profs;
  { start; prof; col }

type kclass = { mutable k_count : int; mutable k_rep : int array }

(* Whether the candidate representative rows.(m..m+n-1) ++ tail sorts
   before [rep] (of the same length) from position [x] on, and the
   candidate itself. *)
let rec rep_below rows m n tail rep x =
  x < Array.length rep
  &&
  let v = if x < n then rows.(m + x) else tail.(x - n) in
  v < rep.(x) || (Int.equal v rep.(x) && rep_below rows m n tail rep (x + 1))

let rep_cand rows m j tail =
  let n = j - m in
  let r = Array.make (n + Array.length tail) 0 in
  Array.blit rows m r 0 n;
  Array.blit tail 0 r n (Array.length tail);
  r

(* The one construction core: the classes of profs.(0) × … × profs.(k-1)
   as (signature, multiplicity, representative) triples for
   [of_signature_list].  Each profile array is in ascending first-row
   order, [n_codes] bounds every code, and the signature covers the
   blocks of [omega].  A trie walk in the leapfrog spirit: relations are
   levels, profiles are keys, and whole subtrees collapse instead of
   being enumerated.

   Each level j >= 1 owns R_j's postings.  Entering it, the walk follows
   the postings of every code of the profiles chosen for the edges
   (i, j) and ORs the matching bits into a per-profile scratch slice, so
   only the profiles of R_j sharing a code with the prefix are touched.
   - At an inner level, every profile of R_j extends the prefix: a
     touched one by its slice, an untouched one with the prefix
     signature unchanged.
   - At the last level (j = k-1) the walk does not descend: each touched
     profile costs one class-table probe, and all untouched profiles go
     in one bulk merge — the prefix signature, with count prefix
     multiplicity × untouched rows and representative prefix ++ the
     first untouched profile's first row.  At k = 2 this level is the
     whole walk: each R-profile follows its postings into P.
   - Disconnected-suffix collapse: when no code of the prefix appears in
     any later relation joined to it by an edge, no further cross bits
     can arise, so an inner level folds in the precomputed *suffix
     universe* (the classes of R_j × … × R_{k-1} alone, built earlier
     by the same walk) one merge per suffix class.

   Representatives: every merge min-merges its candidate row vector, so
   each class keeps its lexicographically smallest member, which for a
   profile combination is its first rows; the first untouched profile
   has the smallest first row among the untouched ones.

   Cost O(Σ d_i·arity + postings visited + touched profiles · words)
   per prefix, against ∏ d_i·|Ω| for comparing every combination.
   [work] counts class merges; past [limit] the walk raises
   [Kary_too_large].

   Early stop: the top stage walks R_0's profiles from index [from] on,
   and [until] sees the signature words of each class it mints.  Once
   [until] has returned [true], the walk ends after the current R_0
   profile, whose classes are then complete; the result holds only the
   classes met so far.  The suffix stages are always built whole. *)
let classes_of ?(limit = max_int) ?(from = 0) ?until ~n_codes omega profs =
  let k = Array.length profs in
  let last = k - 1 in
  if Array.exists (fun ps -> Int.equal (Array.length ps) 0) profs then []
  else begin
    let width = Omega.width omega in
    let words = Bits.word_count width and bpw = Bits.bits_per_word in
    let blocks = Omega.blocks omega in
    (* touch.(i).(a): the mask of edge neighbours sharing at least one
       code with profile a of relation i.  Only the collapse test of an
       inner level reads it, on the prefix relations i <= k-3. *)
    let touch =
      if k < 3 then [||]
      else begin
        let nbrs = Array.make k 0 in
        Array.iter
          (fun (i, j, _) ->
            nbrs.(i) <- nbrs.(i) lor (1 lsl j);
            nbrs.(j) <- nbrs.(j) lor (1 lsl i))
          blocks;
        let code_rels = Array.make n_codes 0 in
        Array.iteri
          (fun i ps ->
            Array.iter
              (fun p ->
                Array.iter
                  (fun c ->
                    if c >= 0 then code_rels.(c) <- code_rels.(c) lor (1 lsl i))
                  p.codes)
              ps)
          profs;
        Array.init (k - 2) (fun i ->
            Array.map
              (fun p ->
                Array.fold_left
                  (fun mask c -> if c >= 0 then mask lor code_rels.(c) else mask)
                  0 p.codes
                land nbrs.(i))
              profs.(i))
      end
    in
    let touch_of i a = if i < k - 2 then touch.(i).(a) else 0 in
    (* Level j >= 1's postings, scratch slices, visit stamps and touched
       profiles; relation 0 is never a level and gets [none]. *)
    let per_level f none = Array.mapi (fun j ps -> if j > 0 then f ps else none) profs in
    let post = per_level (postings ~n_codes) { start = [||]; prof = [||]; col = [||] } in
    let scratch = per_level (fun ps -> Array.make (Array.length ps * words) 0) [||] in
    let stamp = per_level (fun ps -> Array.make (Array.length ps) (-1)) [||] in
    let hits = per_level (fun ps -> Array.make (Array.length ps) 0) [||] in
    let visits = Array.make k 0 in
    let rows_of =
      Array.map (Array.fold_left (fun s p -> s + p.multiplicity) 0) profs
    in
    (* sig_at.(j): the prefix signature entering level j. *)
    let sig_at = Array.init (k + 1) (fun _ -> Array.make words 0) in
    let key = Array.make words 0 in
    (* cur.(i) / rows.(i): the profile chosen for relation i, and its
       first row. *)
    let cur = Array.make k 0 and rows = Array.make k 0 in
    let work = ref 0 and n_touched = ref 0 and n_collapsed = ref 0 in
    (* Stage m's scatter into level j: OR the bits of every edge (i, j)
       with i >= m into R_j's scratch slices, stamping each touched
       profile with this visit; returns how many were touched. *)
    let arity = Array.init k (Omega.arity_at omega) in
    let scatter m j =
      let id = visits.(j) + 1 in
      visits.(j) <- id;
      let st = stamp.(j) and hit = hits.(j) and sc = scratch.(j) and p = post.(j) in
      let mj = arity.(j) and nt = ref 0 in
      for e = 0 to Array.length blocks - 1 do
        let i, j', base = blocks.(e) in
        if Int.equal j' j && i >= m then begin
          let codes = profs.(i).(cur.(i)).codes in
          for x = 0 to Array.length codes - 1 do
            let c = codes.(x) in
            if c >= 0 then
              for q = p.start.(c) to p.start.(c + 1) - 1 do
                let b = p.prof.(q) in
                if not (Int.equal st.(b) id) then begin
                  st.(b) <- id;
                  hit.(!nt) <- b;
                  incr nt
                end;
                let bit = base + (x * mj) + p.col.(q) in
                let w = (b * words) + (bit / bpw) in
                sc.(w) <- sc.(w) lor (1 lsl (bit mod bpw))
              done
          done
        end
      done;
      n_touched := !n_touched + !nt;
      !nt
    in
    (* suffix.(j), 1 <= j <= k-2: the classes of R_j × … × R_{k-1} as
       word arrays with suffix-length representatives. *)
    let suffix = Array.make k [] in
    let stop = ref false in
    let stage m =
      let tbl = W.create 256 in
      (* Merge into the class whose signature is in [key] a member of
         multiplicity [count] whose candidate representative is
         rows.(m..j-1) ++ tail. *)
      let merge count j tail =
        incr work;
        if !work > limit then raise (Kary_too_large { work = !work; limit });
        match W.find_opt tbl key with
        | Some cl ->
            cl.k_count <- cl.k_count + count;
            if rep_below rows m (j - m) tail cl.k_rep 0 then
              cl.k_rep <- rep_cand rows m j tail
        | None ->
            let w = Array.copy key in
            W.add tbl w { k_count = count; k_rep = rep_cand rows m j tail };
            if Int.equal m 0 then
              Option.iter (fun f -> if f w then stop := true) until
      in
      let rec level j mult touched =
        let src = sig_at.(j) and sc = scratch.(j) in
        if Int.equal j last then begin
          let nt = scatter m j in
          let touched_rows = ref 0 in
          for t = 0 to nt - 1 do
            let b = hits.(j).(t) in
            let p = profs.(j).(b) in
            touched_rows := !touched_rows + p.multiplicity;
            let base = b * words in
            for w = 0 to words - 1 do
              key.(w) <- src.(w) lor sc.(base + w);
              sc.(base + w) <- 0
            done;
            rows.(j) <- p.first_row;
            merge (mult * p.multiplicity) k [||]
          done;
          let untouched = rows_of.(j) - !touched_rows in
          if untouched > 0 then begin
            let b = ref 0 in
            while Int.equal stamp.(j).(!b) visits.(j) do
              incr b
            done;
            rows.(j) <- profs.(j).(!b).first_row;
            Array.blit src 0 key 0 words;
            merge (mult * untouched) k [||]
          end
        end
        else if Int.equal (touched land ((1 lsl k) - (1 lsl j))) 0 then begin
          incr n_collapsed;
          List.iter
            (fun (sw, c, srep) ->
              for w = 0 to words - 1 do
                key.(w) <- src.(w) lor sw.(w)
              done;
              merge (mult * c) j srep)
            suffix.(j)
        end
        else begin
          ignore (scatter m j : int);
          let id = visits.(j) and dst = sig_at.(j + 1) in
          Array.iteri
            (fun b p ->
              if Int.equal stamp.(j).(b) id then begin
                let base = b * words in
                for w = 0 to words - 1 do
                  dst.(w) <- src.(w) lor sc.(base + w);
                  sc.(base + w) <- 0
                done
              end
              else Array.blit src 0 dst 0 words;
              cur.(j) <- b;
              rows.(j) <- p.first_row;
              level (j + 1) (mult * p.multiplicity) (touched lor touch_of j b))
            profs.(j)
        end
      in
      let first = if Int.equal m 0 then from else 0 in
      let a = ref first in
      while !a < Array.length profs.(m) && not !stop do
        let p = profs.(m).(!a) in
        cur.(m) <- !a;
        rows.(m) <- p.first_row;
        level (m + 1) p.multiplicity (touch_of m !a);
        incr a
      done;
      if Int.equal m 0 && Option.is_some until then
        Obs.Counter.add c_repair_profiles (!a - first);
      W.fold (fun w cl l -> (w, cl.k_count, cl.k_rep) :: l) tbl []
    in
    for m = k - 2 downto 1 do
      suffix.(m) <- stage m
    done;
    let classes = stage 0 in
    Obs.Counter.add c_kary_work !work;
    Obs.Counter.add c_pairs_touched !n_touched;
    Obs.Counter.add c_kary_collapsed !n_collapsed;
    List.map (fun (w, c, rep) -> (Bits.of_words width w, c, rep)) classes
  end

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

(* [limit] bounds the class merges of a k >= 3 walk: the typed refusal
   for products whose quotient is still too big.  A k = 2 walk has no
   inner level to multiply prefixes, so it is never refused. *)
let default_kary_limit = 20_000_000

(* Profiles of every relation, then the core.  The span keeps the
   historical name, which traces and the wire benchmark read. *)
let build ?(limit = default_kary_limit) ?edges rels =
  let rels = Array.of_list rels in
  check_relations ~entry:"Universe.build" rels;
  let omega = omega_of ?edges rels in
  Obs.span "universe.build_quotient" @@ fun () ->
  let sizes = Array.map Relation.cardinality rels in
  let dict = Dict.create ~size:(Array.fold_left ( + ) 0 sizes) () in
  let profs = Array.map (stream_profiles dict) rels in
  let d = Array.map Array.length profs in
  let n_pairs = Array.fold_left ( * ) 1 d in
  Obs.Counter.add c_dict_values (Dict.size dict);
  Obs.Counter.add c_profiles_r d.(0);
  Obs.Counter.add c_profiles_p (Array.fold_left ( + ) 0 d - d.(0));
  Obs.Counter.add c_profile_pairs n_pairs;
  Obs.Counter.add c_pairs_skipped (Array.fold_left ( * ) 1 sizes - n_pairs);
  let limit = if Array.length rels > 2 then limit else max_int in
  classes_of ~limit ~n_codes:(Dict.size dict) omega profs
  |> of_signature_list ~relations:rels omega

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
    let s = Tsig.of_ktuples omega row_tuples in
    match H.find_opt acc s with
    | Some (c, rep') -> H.replace acc s (c + 1, rep_min rep rep')
    | None -> H.add acc s (1, rep)
  done;
  of_signature_list ~relations:rels omega
    (H.fold (fun s (c, r) l -> (s, c, r) :: l) acc [])

(* ---------------- incremental maintenance under churn -------------- *)

(* [apply_delta] maintains Ω instead of rebuilding it.  The key fact is
   that a tuple combination's signature depends only on its cell values
   (never on row positions or dictionary code values), so churn on one
   relation only does count arithmetic on the class table:

     U_new  =  U_old  −  (removed rows × partners)  +  (added rows × partners)

   Each contribution is one call of [classes_of], the builders' core,
   with the changed relation's slot holding the profiles of its removed
   (or added) rows and every other slot its partners' profiles.  Those
   come from the delta cache, which keeps every slot's profile table in
   ascending first-row order: a partner's table is reused as it is, and
   the changed slot's table is updated from the delta (multiplicities go
   up or down, first rows renumber like reps, and a profile that lost
   its first row looks up its next one).  A batch of b changed rows
   against partners with d distinct profiles costs O(d) table upkeep
   plus the core's walk over b_profiles × d, which pays only for the
   pairs sharing a code.  The O(rows) terms left are the copy of the
   changed slot's code array and, for a profile that lost its first
   row, the scan to its next one.

   Representatives stay lexicographically smallest:
   - survivors renumber monotonically (new = old − #removed below), so a
     surviving rep is still the minimum over the surviving members;
   - added combinations min-merge their candidate vectors in, and a
     signature unseen before can only arise from added rows, so minted
     classes take the add-side minimum;
   - a class whose rep row was deleted is "damaged".  Its surviving
     members all have an R_0 row at or past its old rep's (renumbered
     when R_0 changed), because that rep was the minimum.  Reps are
     lexicographic, so the R_0 row decides first: the repair walks R_0's
     profiles in first-row order from the lowest damaged start, and the
     first profile that meets a class gives it its minimum over every
     member in that profile or later.  The walk stops once every damaged
     class has been met.  When the changed slot is not R_0, an added
     row can make a member below that start, so the plus step keeps its
     add-side minimum for damaged classes too.  A class whose add-side
     minimum sorts below its start takes it and needs no walk; for any
     other class, no added member sorts below what the walk finds.

   Classes whose multiplicity reaches zero retire; any signature going
   negative, or a remove that matches no row, raises [Invalid_argument].
   The result is byte-identical to a from-scratch [build] on the
   post-delta relations (test/test_churn.ml pins this
   differentially on random edit scripts, Mem and Paged, churning every
   slot). *)

module Delta = Jqi_relational.Delta

(* A class's representative during a step: known, or damaged with the
   R_0 row its surviving members start at and the add-side minimum. *)
type rep = Rep of int array | Damaged of { start : int; cand : int array option }

(* Mutable per-class adjustment. *)
type adj = { mutable a_count : int; mutable a_rep : rep }

(* Slot codes before change [c], from the codes [post] after it: the
   survivors with the claimed rows put back at their indexes. *)
let unapply dict post (c : Relation.change) =
  let removed = c.removed in
  let n = Array.length post - Array.length c.delta.adds + Array.length removed in
  let pre = Array.make n [||] and j = ref 0 in
  for i = 0 to n - 1 do
    if !j < Array.length removed && Int.equal removed.(!j) i then begin
      pre.(i) <- Dict.encode_row dict c.delta.removes.(!j);
      incr j
    end
    else pre.(i) <- post.(i - !j)
  done;
  pre

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

(* The delta cache a batch starts from: the universe's own, or a fresh
   encoding.  A changed relation is encoded from its last [after] with
   each change undone in turn, because a paged store is written in
   place and can no longer read its pre-delta rows.  A fresh encoding
   depends on the batch's changes, so it is not kept on [t]. *)
let delta_cache t rels deltas =
  match t.cache with
  | Some c -> c
  | None ->
      let total_rows =
        Array.fold_left (fun s r -> s + Relation.cardinality r) 0 rels
      in
      let dict = Dict.create ~size:total_rows () in
      let encode i r =
        let of_slot (j, c) = if Int.equal i j then Some c else None in
        let row_codes =
          match List.filter_map of_slot (List.rev deltas) with
          | [] -> Dict.encode_rows dict r
          | last :: _ as changes ->
              List.fold_left (unapply dict)
                (Dict.encode_rows dict last.Relation.after)
                changes
        in
        { row_codes; profs = group_codes row_codes }
      in
      { dict; slots = Array.mapi encode rels }

(* How many of the sorted [removed] indexes lie below [x]. *)
let rank removed x =
  let lo = ref 0 and hi = ref (Array.length removed) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if removed.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let is_removed removed below x =
  below < Array.length removed && Int.equal removed.(below) x

(* A slot's profile table after a change, from the table [profs] and
   codes [old_codes] before it and the codes [row_codes] after it (the
   survivors, then the adds from index [survivors]).  A profile keeps
   its place in first-row order unless it lost its first row; those
   move to their next row, and profiles minted by the adds come last. *)
let update_profiles profs ~removed ~old_codes ~row_codes ~survivors =
  let n_profs = Array.length profs in
  let index = PH.create (2 * n_profs) in
  Array.iteri (fun a p -> PH.replace index p.codes a) profs;
  let mult = Array.map (fun p -> p.multiplicity) profs in
  let profile_of cv =
    match PH.find_opt index cv with
    | Some a -> a
    | None -> invalid_arg "Universe.apply_delta: removed row outside the cache"
  in
  Array.iter
    (fun i ->
      let a = profile_of old_codes.(i) in
      mult.(a) <- mult.(a) - 1)
    removed;
  let fresh = PH.create 16 and minted = Vec.create () in
  for x = survivors to Array.length row_codes - 1 do
    let cv = row_codes.(x) in
    match PH.find_opt index cv with
    | Some a when mult.(a) > 0 -> mult.(a) <- mult.(a) + 1
    | Some _ | None -> (
        match PH.find_opt fresh cv with
        | Some p -> p.multiplicity <- p.multiplicity + 1
        | None ->
            let p = { codes = cv; multiplicity = 1; first_row = x } in
            PH.add fresh cv p;
            Vec.push minted p)
  done;
  let kept = Vec.create () and moved = Vec.create () in
  Array.iteri
    (fun a p ->
      let m = mult.(a) in
      if m > 0 then begin
        let below = rank removed p.first_row in
        if is_removed removed below p.first_row then begin
          (* its other rows all survive past the old first row's place *)
          let x = ref (p.first_row - below) in
          while !x < survivors && not (Profile.equal row_codes.(!x) p.codes) do
            incr x
          done;
          if !x >= survivors then
            invalid_arg "Universe.apply_delta: profile lost every row";
          Vec.push moved { p with multiplicity = m; first_row = !x }
        end
        else if Int.equal m p.multiplicity && Int.equal below 0 then Vec.push kept p
        else Vec.push kept { p with multiplicity = m; first_row = p.first_row - below }
      end)
    profs;
  let moved = Vec.to_array moved in
  Array.sort (fun p q -> Int.compare p.first_row q.first_row) moved;
  let out = Vec.create () and j = ref 0 in
  Vec.iter
    (fun p ->
      while !j < Array.length moved && moved.(!j).first_row < p.first_row do
        Vec.push out moved.(!j);
        incr j
      done;
      Vec.push out p)
    kept;
  for i = !j to Array.length moved - 1 do
    Vec.push out moved.(i)
  done;
  Vec.iter (Vec.push out) minted;
  Vec.to_array out

(* The first profile of [profs] (ascending first rows) whose first row
   is at least [row]. *)
let first_profile_at profs row =
  let lo = ref 0 and hi = ref (Array.length profs) in
  while !lo < !hi do
    let mid = !lo + ((!hi - !lo) / 2) in
    if profs.(mid).first_row < row then lo := mid + 1 else hi := mid
  done;
  !lo

let apply_delta t deltas =
  Obs.span "universe.apply_delta" @@ fun () ->
  let rels =
    match t.relations with
    | Some rels -> Array.copy rels
    | None ->
        invalid_arg "Universe.apply_delta: universe was built without relations"
  in
  let k = Array.length rels in
  (* Each change must start from its slot's current row count. *)
  let rows = Array.map Relation.cardinality rels in
  List.iter
    (fun (ridx, (c : Relation.change)) ->
      if ridx < 0 || ridx >= k then
        invalid_arg "Universe.apply_delta: no such relation";
      rows.(ridx) <-
        rows.(ridx) - Array.length c.removed + Array.length c.delta.adds;
      if not (Int.equal rows.(ridx) (Relation.cardinality c.after)) then
        invalid_arg "Universe.apply_delta: change from another relation version")
    deltas;
  let cache = delta_cache t rels deltas in
  let slots = Array.copy cache.slots in
  let dict = cache.dict in
  let width = Omega.width t.omega in
  let tbl = H.create (max 64 (2 * Array.length t.classes)) in
  Array.iter
    (fun c ->
      H.replace tbl c.signature { a_count = c.count; a_rep = Rep (Array.copy c.rep) })
    t.classes;
  (* The classes of the product with every slot's current profiles,
     relation [ridx]'s replaced by [slot] when given. *)
  let classes_with ?from ?until ?slot ridx =
    let profs = Array.map (fun s -> s.profs) slots in
    Option.iter (fun ps -> profs.(ridx) <- ps) slot;
    classes_of ?from ?until ~n_codes:(Dict.size dict) t.omega profs
  in
  (* A damaged class whose add-side minimum sorts below its start takes
     it.  Every other member of every other damaged class lies in an R_0
     profile at or past the lowest start, so the walk from there gives
     them their minimum; an add-side one is no smaller. *)
  let repair () =
    let pending = H.create 16 and lo = ref max_int in
    H.iter
      (fun s a ->
        match a.a_rep with
        | Rep _ -> ()
        | Damaged { start; cand = Some c } when c.(0) < start -> a.a_rep <- Rep c
        | Damaged { start; cand = _ } ->
            H.replace pending s a;
            lo := min !lo start)
      tbl;
    if H.length pending > 0 then begin
      let left = ref (H.length pending) in
      let until w =
        if H.mem pending (Bits.of_words width w) then decr left;
        Int.equal !left 0
      in
      let from = first_profile_at slots.(0).profs !lo in
      List.iter
        (fun (s, _, rep) ->
          match H.find_opt pending s with
          | Some a -> a.a_rep <- Rep rep
          | None -> ())
        (classes_with ~from ~until 0)
    end
  in
  let step (ridx, (c : Relation.change)) =
    let d = c.delta and removed = c.removed in
    if not (Delta.is_empty d) then begin
      let add_codes = Dict.intern_delta dict d in
      let old_codes = slots.(ridx).row_codes in
      let n_removed = Array.length removed in
      let survivors = Array.length old_codes - n_removed in
      let row_codes = Array.make (survivors + Array.length add_codes) [||] in
      let w = ref 0 and j = ref 0 in
      Array.iteri
        (fun i cv ->
          if !j < n_removed && Int.equal removed.(!j) i then incr j
          else begin
            row_codes.(!w) <- cv;
            incr w
          end)
        old_codes;
      Array.blit add_codes 0 row_codes survivors (Array.length add_codes);
      (* minus: removed rows re-join into profile groups and decrement *)
      List.iter
        (fun (s, count, _) ->
          match H.find_opt tbl s with
          | Some a when a.a_count >= count -> a.a_count <- a.a_count - count
          | Some _ | None ->
              invalid_arg "Universe.apply_delta: delta inconsistent with the universe")
        (classes_with ridx
           ~slot:(group_codes (Array.map (fun i -> old_codes.(i)) removed)));
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
            | Damaged _ -> ()
            | Rep rep ->
                let x = rep.(ridx) in
                let below = rank removed x in
                if is_removed removed below x then
                  a.a_rep <-
                    Damaged
                      {
                        start = (if Int.equal ridx 0 then x - below else rep.(0));
                        cand = None;
                      }
                else rep.(ridx) <- x - below)
          tbl;
      (* plus: added rows land in existing classes or mint new ones *)
      List.iter
        (fun (s, count, rep) ->
          match H.find_opt tbl s with
          | Some a -> (
              a.a_count <- a.a_count + count;
              match a.a_rep with
              | Rep rep' -> a.a_rep <- Rep (rep_min rep' rep)
              | Damaged dm ->
                  a.a_rep <-
                    Damaged
                      { dm with cand = Some (Option.fold ~none:rep ~some:(rep_min rep) dm.cand) })
          | None -> H.replace tbl s { a_count = count; a_rep = Rep rep })
        (classes_with ridx
           ~slot:
             (Array.map
                (fun p -> { p with first_row = survivors + p.first_row })
                (group_codes add_codes)));
      slots.(ridx) <-
        {
          row_codes;
          profs =
            update_profiles slots.(ridx).profs ~removed ~old_codes ~row_codes
              ~survivors;
        };
      repair ()
    end;
    rels.(ridx) <- c.after
  in
  List.iter step deltas;
  let sigs =
    H.fold
      (fun s a acc ->
        match a.a_rep with
        | Rep rep -> (s, a.a_count, rep) :: acc
        | Damaged _ -> invalid_arg "Universe.apply_delta: unrepaired class")
      tbl []
  in
  (match sigs with
  | [] -> invalid_arg "Universe.apply_delta: empty Cartesian product"
  | _ :: _ -> ());
  { (of_signature_list ~relations:rels t.omega sigs) with
    cache = Some { dict; slots } }

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
