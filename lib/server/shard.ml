(* Mutex-sharded state: the concurrency primitive under [Catalog] and
   [Manager].

   A ['a t] is N independent copies of some mutable state, each behind
   its own mutex.  Keys (session ids, universe fingerprints) are hashed
   to a shard with FNV-1a — deterministic across runs and domains, and
   deliberately not [Hashtbl.hash] so the distribution is fixed by this
   file alone.  A caller locks exactly one shard per operation, so
   operations on keys that land on different shards proceed in parallel;
   the global lock of the single-table design is gone.

   The discipline callers must keep: never call back into the same
   [Shard.t] from inside [with_key]/[with_slot]/[fold] (the mutexes are
   not reentrant), and never hold two shards of the same [t] at once.
   Operations over *different* [t]s (the manager's and the catalog's)
   may nest freely — they are acquired in call order and released before
   return, so no cycle can form. *)

type 'a t = { mutexes : Mutex.t array; states : 'a array }

let default_shards = 16

let create ?(shards = default_shards) init =
  let shards = if shards < 1 then 1 else shards in
  {
    mutexes = Array.init shards (fun _ -> Mutex.create ());
    states = Array.init shards init;
  }

(* 32-bit FNV-1a, folded into a non-negative OCaml int. *)
let fnv1a key =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0xffffffff)
    key;
  !h land max_int

let index t key = fnv1a key mod Array.length t.states

let with_slot t i f = Mutex.protect t.mutexes.(i) (fun () -> f t.states.(i))

let with_key t key f = with_slot t (index t key) f

let fold t ~init ~f =
  let acc = ref init in
  for i = 0 to Array.length t.states - 1 do
    acc := with_slot t i (fun s -> f !acc i s)
  done;
  !acc

let mapi t f = List.rev (fold t ~init:[] ~f:(fun acc i s -> f i s :: acc))
