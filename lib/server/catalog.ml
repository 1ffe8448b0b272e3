(* Relation catalog + universe cache.

   Universe construction is the expensive part of opening a session — the
   profile-quotient scan touches every row of both relations — so it is
   memoized per relation list.  The key is the list of content
   fingerprints, not the names: re-registering "flights" with new rows
   yields a different fingerprint and a fresh build, while two differently
   registered names over identical content share one universe.  Each
   name's entry carries its relation's fingerprint, hashed on first use
   and replaced along with the relation by a delta, so a lookup by name
   hashes no rows once that relation version has been seen.

   Concurrency: the universe cache is sharded by fingerprint-list key
   (one mutex per shard), so sessions over distinct pairs build and look
   up in parallel.  A build runs *inside* its shard's lock — two
   concurrent misses on the same pair produce exactly one build (the
   second caller blocks, then hits), at the price of briefly serializing
   unrelated pairs that hash to the same shard.  The name table is a
   single small mutex: registration is rare and lookups are O(1). *)

module Relation = Jqi_relational.Relation
module Delta = Jqi_relational.Delta
module Universe = Jqi_core.Universe
module Obs = Jqi_obs.Obs

let c_hit = Obs.Counter.make "server.universe_cache_hit"
let c_miss = Obs.Counter.make "server.universe_cache_miss"
let c_patched = Obs.Counter.make "server.universe_cache_patched"
let c_delta_evicted = Obs.Counter.make "server.universe_cache_delta_evicted"

type ushard = {
  universes : (string, Universe.t) Hashtbl.t [@lint.guarded_by "shards"];
      (* "fp(R_0):…:fp(R_{k-1})" keyed *)
  mutable hits : int [@lint.guarded_by "shards"];
  mutable misses : int [@lint.guarded_by "shards"];
}

(* A relation version's fingerprint: the digest a delta updates, and
   its rendering, which keys the universe cache. *)
type fp = { digest : Relation.digest; hex : string }

(* Immutable: [fp] memoizes [Relation.digest rel] and its rendering, so each
   relation version is hashed at most once. *)
type entry = { rel : Relation.t; fp : fp option }

type t = {
  names_mutex : Mutex.t;
  relations : (string, entry) Hashtbl.t [@lint.guarded_by "names_mutex"];
  shards : ushard Shard.t;
}

let create ?shards () =
  {
    names_mutex = Mutex.create ();
    relations = Hashtbl.create 16;
    shards =
      Shard.create ?shards (fun _ ->
          { universes = Hashtbl.create 4; hits = 0; misses = 0 });
  }

let with_names t f = Mutex.protect t.names_mutex f

(* The store a paged relation writes on a delta; a Mem relation has
   none, since its deltas build fresh arrays. *)
let store_of rel =
  match Relation.backend rel with
  | Relation.Backend.Paged p -> Some p.Relation.Backend.describe
  | Relation.Backend.Mem _ -> None

(* A delta writes a paged store in place, which a second name over the
   same store would not see, so the second name is refused. *)
let add ?name t rel =
  let name = match name with Some n -> n | None -> Relation.name rel in
  with_names t (fun () ->
      Option.iter
        (fun store ->
          Hashtbl.iter
            (fun other e ->
              if
                (not (String.equal other name))
                && Option.equal String.equal (store_of e.rel) (Some store)
              then
                invalid_arg
                  (Printf.sprintf "Catalog.add: %s is already registered as %s"
                     store other))
            t.relations)
        (store_of rel);
      Hashtbl.replace t.relations name { rel; fp = None })

let find_entry t name =
  with_names t (fun () -> Hashtbl.find_opt t.relations name)

let find t name = Option.map (fun e -> e.rel) (find_entry t name)

let names t =
  List.sort String.compare
    (with_names t (fun () ->
         Hashtbl.fold (fun name _ acc -> name :: acc) t.relations []))

(* The entry's fingerprint.  A missing one is hashed outside the lock
   and published only if [name] still holds the same relation, so a
   concurrent [add] or delta is never overwritten with a stale entry. *)
let fingerprint t name { rel; fp } =
  match fp with
  | Some fp -> fp
  | None ->
      let digest = Relation.digest rel in
      let fp = { digest; hex = Relation.digest_hex digest } in
      with_names t (fun () ->
          match Hashtbl.find_opt t.relations name with
          | Some e when e.rel == rel ->
              Hashtbl.replace t.relations name { rel; fp = Some fp }
          | Some _ | None -> ());
      fp

(* Resolve catalog names in order; the first unknown name is the error. *)
let resolve t names =
  with_names t (fun () ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            match Hashtbl.find_opt t.relations name with
            | Some e -> go ((name, e) :: acc) rest
            | None -> Error name)
      in
      go [] names)

(* The key is the colon-joined fingerprint list, so every arity shares
   one cache and [Universe.build] alone decides how to build a miss. *)
let universe t names =
  match resolve t names with
  | Error name -> Error name
  | Ok entries ->
      let key =
        String.concat ":"
          (List.map (fun (n, e) -> (fingerprint t n e).hex) entries)
      in
      let rels = List.map (fun (_, e) -> e.rel) entries in
      Ok
        (Shard.with_key t.shards key (fun shard ->
             match Hashtbl.find_opt shard.universes key with
             | Some u ->
                 shard.hits <- shard.hits + 1;
                 Obs.Counter.incr c_hit;
                 (true, u)
             | None ->
                 shard.misses <- shard.misses + 1;
                 Obs.Counter.incr c_miss;
                 let u =
                   Obs.span ~attrs:[ ("key", key) ] "server.universe_build"
                     (fun () -> Universe.build rels)
                 in
                 Hashtbl.replace shard.universes key u;
                 (false, u)))

(* ---- delta-granularity invalidation ---- *)

type churn = {
  new_rel : Relation.t;
  old_fp : string;
  new_fp : string;
  patched : int;  (* cache entries migrated to the new key *)
  dropped : int;  (* cache entries evicted instead of patched *)
}

(* Fingerprints are fixed-width hex (no ':'), so splitting a colon-joined
   cache key recovers the component list exactly. *)
let positions_of fp key =
  let parts = String.split_on_char ':' key in
  let rec go i acc = function
    | [] -> List.rev acc
    | p :: rest ->
        go (i + 1) (if String.equal p fp then i :: acc else acc) rest
  in
  go 0 [] parts

let rekey ~old_fp ~new_fp key =
  String.concat ":"
    (List.map
       (fun p -> if String.equal p old_fp then new_fp else p)
       (String.split_on_char ':' key))

let apply_delta t ~name (d : Delta.t) =
  match find_entry t name with
  | None -> None
  | Some ({ rel; _ } as entry) ->
      let old = fingerprint t name entry in
      let old_fp = old.hex in
      (* The one resolution and the one write; a bad delta raises here,
         before any cache entry is touched. *)
      let change = Relation.apply_delta rel d in
      (* Take out the cache entries keyed on the pre-delta fingerprint. *)
      let matches =
        Shard.fold t.shards ~init:[] ~f:(fun acc _ shard ->
            let acc = ref acc in
            Hashtbl.filter_map_inplace
              (fun key u ->
                match positions_of old_fp key with
                | [] -> Some u
                | ps ->
                    acc := (key, ps, u) :: !acc;
                    None)
              shard.universes;
            !acc)
      in
      let patched = ref 0 and dropped = ref 0 in
      let migrated =
        List.filter_map
          (fun (key, ps, u) ->
            match Universe.apply_delta u (List.map (fun i -> (i, change)) ps) with
            | u' ->
                incr patched;
                Obs.Counter.incr c_patched;
                Some (key, u')
            | exception Invalid_argument _ ->
                (* as when the delta empties the product *)
                incr dropped;
                Obs.Counter.incr c_delta_evicted;
                None)
          matches
      in
      let new_rel = change.after in
      let digest = Relation.digest_after old.digest change in
      let new_fp = Relation.digest_hex digest in
      List.iter
        (fun (key, u') ->
          let key' = rekey ~old_fp ~new_fp key in
          Shard.with_key t.shards key' (fun shard ->
              Hashtbl.replace shard.universes key' u'))
        migrated;
      with_names t (fun () ->
          Hashtbl.replace t.relations name
            { rel = new_rel; fp = Some { digest; hex = new_fp } });
      Some
        { new_rel; old_fp; new_fp; patched = !patched; dropped = !dropped }

let shard_stats t = Shard.mapi t.shards (fun _ s -> (s.hits, s.misses))

let stats t =
  Shard.fold t.shards ~init:(0, 0) ~f:(fun (h, m) _ s ->
      (h + s.hits, m + s.misses))
