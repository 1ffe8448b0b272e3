(* The most specific join predicate selecting a tuple:

     T(t) = { (A_i, B_j) | tR[A_i] = tP[B_j] }

   extended to sets by intersection: T(U) = ∩_{t∈U} T(t).  T is the
   elementary tool of the whole inference machinery (§3): θ selects t iff
   θ ⊆ T(t), so every question about C(S) reduces to subset tests between
   T-signatures. *)

module Bits = Jqi_util.Bits
module Value = Jqi_relational.Value
module Tuple = Jqi_relational.Tuple

let of_tuples omega tr tp =
  Bits.build (Omega.width omega) (fun set ->
      for i = 0 to Omega.left_arity omega - 1 do
        let vr = Tuple.get tr i in
        if not (Value.is_null vr) then
          for j = 0 to Omega.right_arity omega - 1 do
            if Value.eq vr (Tuple.get tp j) then set (Omega.index omega i j)
          done
      done)

(* K-ary T: one tuple (or code vector) per relation; the signature has a
   bit for every attribute pair of every block of Ω that matches.  For
   k = 2 the block layout makes this coincide bit-for-bit with
   [of_tuples].  Codes are [Dict] codes: equal code ⟺ join-match, and
   NULL/NaN carry a negative sentinel that matches nothing. *)
let of_kcodes omega codes =
  let k = Omega.n_relations omega in
  if not (Int.equal (Array.length codes) k) then
    invalid_arg "Tsig.of_kcodes: need one code vector per relation";
  for i = 0 to k - 1 do
    if not (Int.equal (Array.length codes.(i)) (Omega.arity_at omega i)) then
      invalid_arg "Tsig.of_kcodes: code vectors must match the arities of Omega"
  done;
  let blocks = Omega.blocks omega in
  Bits.build (Omega.width omega) (fun set ->
      for e = 0 to Array.length blocks - 1 do
        let i, j, base = blocks.(e) in
        let ci = codes.(i) and cj = codes.(j) in
        let m = Array.length cj in
        for a = 0 to Array.length ci - 1 do
          let c = ci.(a) in
          if c >= 0 then
            for b = 0 to m - 1 do
              if Int.equal c cj.(b) then set (base + (a * m) + b)
            done
        done
      done)

let of_ktuples omega tuples =
  let k = Omega.n_relations omega in
  if not (Int.equal (Array.length tuples) k) then
    invalid_arg "Tsig.of_ktuples: need one tuple per relation";
  let blocks = Omega.blocks omega in
  Bits.build (Omega.width omega) (fun set ->
      for e = 0 to Array.length blocks - 1 do
        let i, j, base = blocks.(e) in
        let ti = tuples.(i) and tj = tuples.(j) in
        let m = Omega.arity_at omega j in
        for a = 0 to Omega.arity_at omega i - 1 do
          let v = Tuple.get ti a in
          if not (Value.is_null v) then
            for b = 0 to m - 1 do
              if Value.eq v (Tuple.get tj b) then set (base + (a * m) + b)
            done
        done
      done)

(* T(U) for a set of signatures; T(∅) = Ω, the identity of intersection,
   which is exactly what §3.3 needs when the user labels no positive
   example. *)
let of_signatures omega sigs =
  List.fold_left Bits.inter (Omega.full omega) sigs

(* [selects theta sig]: does the predicate θ select a tuple with signature
   [sig]?  This single subset test is the semantics of R ⋈_θ P restricted to
   one tuple of the Cartesian product. *)
let selects theta sig_ = Bits.subset theta sig_
