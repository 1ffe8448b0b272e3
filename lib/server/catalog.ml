(* Relation catalog + universe cache.

   Universe construction is the expensive part of opening a session — the
   profile-quotient scan touches every row of both relations — so it is
   memoized per relation list.  The key is the list of content
   fingerprints, not the names: re-registering "flights" with new rows
   yields a different fingerprint and a fresh build, while two differently
   registered names over identical content share one universe.

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

type t = {
  names_mutex : Mutex.t;
  relations : (string, Relation.t) Hashtbl.t [@lint.guarded_by "names_mutex"];
  fps : (string, Relation.Fp.acc) Hashtbl.t [@lint.guarded_by "names_mutex"];
      (* per-name fingerprint accumulators, so append-only deltas bump
         the fingerprint in O(|adds|) instead of rehashing the relation *)
  shards : ushard Shard.t;
}

let create ?shards () =
  {
    names_mutex = Mutex.create ();
    relations = Hashtbl.create 16;
    fps = Hashtbl.create 16;
    shards =
      Shard.create ?shards (fun _ ->
          { universes = Hashtbl.create 4; hits = 0; misses = 0 });
  }

let shards t = Shard.size t.shards

let with_names t f = Mutex.protect t.names_mutex f

let add ?name t rel =
  let name = match name with Some n -> n | None -> Relation.name rel in
  with_names t (fun () ->
      Hashtbl.replace t.relations name rel;
      (* a replaced relation's accumulator is stale; recomputed lazily *)
      Hashtbl.remove t.fps name)

let find t name = with_names t (fun () -> Hashtbl.find_opt t.relations name)

let names t =
  List.sort String.compare
    (with_names t (fun () ->
         Hashtbl.fold (fun name _ acc -> name :: acc) t.relations []))

(* The key is the colon-joined fingerprint list, so every arity shares
   one cache and [Universe.build] alone decides how to build a miss. *)
let universe t rels =
  let key = String.concat ":" (List.map Relation.fingerprint rels) in
  Shard.with_key t.shards key (fun shard ->
      match Hashtbl.find_opt shard.universes key with
      | Some u ->
          shard.hits <- shard.hits + 1;
          Obs.Counter.incr c_hit;
          (true, u)
      | None ->
          shard.misses <- shard.misses + 1;
          Obs.Counter.incr c_miss;
          let u =
            Obs.span ~attrs:[ ("key", key) ] "server.universe_build" (fun () ->
                Universe.build rels)
          in
          Hashtbl.replace shard.universes key u;
          (false, u))

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
  match with_names t (fun () -> Hashtbl.find_opt t.relations name) with
  | None -> None
  | Some rel ->
      let old_acc =
        match with_names t (fun () -> Hashtbl.find_opt t.fps name) with
        | Some acc -> acc
        | None -> Relation.Fp.of_relation rel
      in
      let old_fp = Relation.Fp.render old_acc in
      (* Validate up front (read-only): a bad delta must raise before any
         cache entry is evicted or any paged store is touched — the
         patch loop below treats patch failures as evictions, which
         would otherwise swallow a genuinely malformed delta. *)
      Delta.check_arity (Relation.arity rel) d;
      ignore (Relation.resolve_removes rel d : int array);
      let paged = String.equal (Relation.backend_name rel) "paged" in
      (* Snapshot the cache entries keyed on the pre-delta fingerprint. *)
      let matches =
        Shard.fold t.shards ~init:[] ~f:(fun acc _ shard ->
            Hashtbl.fold
              (fun key u acc ->
                match positions_of old_fp key with
                | [] -> acc
                | ps -> (key, ps, u) :: acc)
              shard.universes acc)
      in
      List.iter
        (fun (key, _, _) ->
          Shard.with_key t.shards key (fun shard ->
              Hashtbl.remove shard.universes key))
        matches;
      let patched = ref 0 and dropped = ref 0 in
      let fresh_rel = ref None in
      let patch_one (key, ps, u) =
        match Universe.apply_delta u (List.map (fun i -> (i, d)) ps) with
        | u' ->
            incr patched;
            Obs.Counter.incr c_patched;
            (match (Universe.relations u', ps) with
            | Some rels, i :: _ when Option.is_none !fresh_rel ->
                fresh_rel := Some rels.(i)
            | (Some _ | None), _ -> ());
            Some (key, u')
        | exception (Invalid_argument _ | Universe.Kary_too_large _) ->
            incr dropped;
            Obs.Counter.incr c_delta_evicted;
            if paged then
              (* The store may hold the delta already (the class arithmetic
                 validates before mutating, but an empty final product
                 raises after); refresh the view without re-applying. *)
              fresh_rel := Some (Relation.apply_delta rel Delta.empty);
            None
      in
      let migrated =
        if paged then
          (* A paged delta mutates the one backing store, so it can be
             applied exactly once: patch the first entry, drop the rest
             (their pre-delta views are stale anyway).  A self-join entry
             (the same fingerprint at two positions) would re-apply, so
             it is dropped too. *)
          match matches with
          | (_, [ _ ], _) as first :: rest ->
              List.iter
                (fun _ ->
                  incr dropped;
                  Obs.Counter.incr c_delta_evicted)
                rest;
              Option.to_list (patch_one first)
          | matches ->
              List.iter
                (fun _ ->
                  incr dropped;
                  Obs.Counter.incr c_delta_evicted)
                matches;
              []
        else List.filter_map patch_one matches
      in
      let new_rel =
        match !fresh_rel with
        | Some r -> r
        | None -> Relation.apply_delta rel d
      in
      let new_acc =
        if Delta.inserts_only d then Relation.Fp.feed_rows old_acc d.Delta.adds
        else Relation.Fp.of_relation new_rel
      in
      let new_fp = Relation.Fp.render new_acc in
      List.iter
        (fun (key, u') ->
          let key' = rekey ~old_fp ~new_fp key in
          Shard.with_key t.shards key' (fun shard ->
              Hashtbl.replace shard.universes key' u'))
        migrated;
      with_names t (fun () ->
          Hashtbl.replace t.relations name new_rel;
          Hashtbl.replace t.fps name new_acc);
      Some
        { new_rel; old_fp; new_fp; patched = !patched; dropped = !dropped }

let shard_stats t = Shard.mapi t.shards (fun _ s -> (s.hits, s.misses))

let stats t =
  Shard.fold t.shards ~init:(0, 0) ~f:(fun (h, m) _ s ->
      (h + s.hits, m + s.misses))
