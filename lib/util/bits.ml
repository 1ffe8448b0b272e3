(* Fixed-width immutable bitsets.

   Join predicates are subsets of Ω = attrs(R) × attrs(P); the inference
   inner loops are dominated by subset and intersection tests between such
   predicates, so we represent them as arrays of word-sized integers.
   Invariant: bits at positions >= width are always zero, which lets
   [equal]/[compare]/[hash] work word-wise. *)

let bits_per_word = Sys.int_size

type t = { width : int; words : int array }

let nwords width =
  if width < 0 then invalid_arg "Bits: negative width";
  (width + bits_per_word - 1) / bits_per_word

let word_count width = max 1 (nwords width)
let empty width = { width; words = Array.make (word_count width) 0 }

let width t = t.width

let check_idx t i =
  if i < 0 || i >= t.width then
    invalid_arg (Printf.sprintf "Bits: index %d out of width %d" i t.width)

(* Mask for the last word so complement-like operations keep the invariant. *)
let last_mask width =
  let r = width mod bits_per_word in
  if r = 0 then -1 else (1 lsl r) - 1

let full width =
  let words = Array.make (word_count width) 0 in
  let m = nwords width in
  for i = 0 to m - 1 do
    words.(i) <- -1
  done;
  if m > 0 then words.(m - 1) <- last_mask width;
  { width; words }

let mem t i =
  check_idx t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check_idx t i;
  let w = Array.copy t.words in
  let j = i / bits_per_word in
  w.(j) <- w.(j) lor (1 lsl (i mod bits_per_word));
  { t with words = w }

let remove t i =
  check_idx t i;
  let w = Array.copy t.words in
  let j = i / bits_per_word in
  w.(j) <- w.(j) land lnot (1 lsl (i mod bits_per_word));
  { t with words = w }

let check_same a b =
  if a.width <> b.width then invalid_arg "Bits: width mismatch"

let map2 f a b =
  check_same a b;
  { width = a.width; words = Array.map2 f a.words b.words }

let union a b = map2 ( lor ) a b
let inter a b = map2 ( land ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement t =
  let u = diff (full t.width) t in
  u

let equal a b = a.width = b.width && Array.for_all2 ( = ) a.words b.words

let compare a b =
  let c = compare a.width b.width in
  if c <> 0 then c else compare a.words b.words

let hash t =
  Array.fold_left (fun acc w -> (acc * 486187739) + w) t.width t.words

let subset a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land lnot b.words.(i) = 0 && go (i + 1)) in
  go 0

(* (a ∩ b) ⊆ c without materializing the intersection; the fused form of
   the Lemma 3.4 test that dominates the lookahead leaf loops. *)
let inter_subset a b c =
  check_same a b;
  check_same a c;
  let n = Array.length a.words in
  let rec go i =
    i >= n
    || (a.words.(i) land b.words.(i) land lnot c.words.(i) = 0 && go (i + 1))
  in
  go 0

let disjoint a b =
  check_same a b;
  let n = Array.length a.words in
  let rec go i = i >= n || (a.words.(i) land b.words.(i) = 0 && go (i + 1)) in
  go 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let popcount_word w =
  let rec go acc w = if w = 0 then acc else go (acc + 1) (w land (w - 1)) in
  go 0 w

let cardinal t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.words

let fold f t acc =
  let acc = ref acc in
  for i = 0 to t.width - 1 do
    if mem t i then acc := f i !acc
  done;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list width l = List.fold_left add (empty width) l

(* Single-allocation construction: [build w f] gives [f] a setter that
   marks bits in a fresh word array.  The hot T-signature scan uses this
   to avoid one array copy per matching attribute pair. *)
let build width f =
  let words = Array.make (word_count width) 0 in
  let set i =
    if i < 0 || i >= width then
      invalid_arg (Printf.sprintf "Bits.build: index %d out of width %d" i width);
    let j = i / bits_per_word in
    words.(j) <- words.(j) lor (1 lsl (i mod bits_per_word))
  in
  f set;
  { width; words }

(* The inverse of the word layout, for kernels that accumulate
   signatures in flat scratch words and mint a set only per new class. *)
let of_words width words =
  let n = word_count width in
  if not (Int.equal (Array.length words) n) then
    invalid_arg "Bits.of_words: word count does not match the width";
  let m = nwords width in
  if (m > 0 && words.(m - 1) land lnot (last_mask width) <> 0)
     || (m = 0 && words.(0) <> 0)
  then invalid_arg "Bits.of_words: bit set beyond the width";
  { width; words = Array.copy words }

let word t j = t.words.(j)

(* All subsets of [t], in no particular order.  Exponential: used only by
   brute-force test oracles and the minimax strategy on tiny instances. *)
let subsets t =
  let elems = elements t in
  List.fold_left
    (fun acc i -> List.concat_map (fun s -> [ s; add s i ]) acc)
    [ empty t.width ] elems

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") int) (elements t)

let to_string t = Fmt.str "%a" pp t
