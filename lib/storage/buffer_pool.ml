(* Buffer pool with CLOCK (second-chance) eviction.

   One latch serializes the frame table, the clock hand, and the page
   I/O done on behalf of a miss or a flush.  That "I/O under the
   latch" is a deliberate teaching-DB simplification (no per-frame
   loading states, no latch crabbing).  Stats are kept unconditionally so
   the bench can compute hit rates even with observability disabled;
   the same events are mirrored into jqi.obs counters.

   R10 waiver (whole file): the single-latch design does pager I/O
   while holding the pool latch — the simplification this module is
   explicit about; see doc/STORAGE.md for what a latch-crabbing
   version would need. *)
[@@@lint.allow "R10"]

let c_hits = Jqi_obs.Obs.Counter.make "storage.pool_hits"
let c_misses = Jqi_obs.Obs.Counter.make "storage.pool_misses"
let c_evictions = Jqi_obs.Obs.Counter.make "storage.pool_evictions"
let c_flushes = Jqi_obs.Obs.Counter.make "storage.pool_flushes"

type frame = {
  buf : bytes;
  mutable page_id : int; (* -1 while the frame is empty *)
  mutable pins : int;
  mutable dirty : bool;
  mutable refbit : bool;
}

type stats = { hits : int; misses : int; evictions : int; flushes : int }

type t = {
  pager : Pager.t;
  arr : frame array;
  latch : Mutex.t;
  table : (int, frame) Hashtbl.t; [@lint.guarded_by "latch"]
  mutable hand : int; [@lint.guarded_by "latch"]
  mutable hits : int; [@lint.guarded_by "latch"]
  mutable misses : int; [@lint.guarded_by "latch"]
  mutable evictions : int; [@lint.guarded_by "latch"]
  mutable flushes : int; [@lint.guarded_by "latch"]
  mutable closed : bool; [@lint.guarded_by "latch"]
}

exception Exhausted of int

let frame_buf f = f.buf
let frame_page f = f.page_id

let create ?(frames = 64) pager =
  let n = max 1 frames in
  let size = Pager.page_size pager in
  let mk _ =
    { buf = Bytes.make size '\000'; page_id = -1; pins = 0; dirty = false;
      refbit = false }
  in
  {
    pager;
    arr = Array.init n mk;
    latch = Mutex.create ();
    table = Hashtbl.create (2 * n);
    hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    flushes = 0;
    closed = false;
  }

let pager t = t.pager
let check_open t = if t.closed then invalid_arg "Buffer_pool: pool is closed"

(* CLOCK sweep: skip pinned frames, give referenced frames a second
   chance, take the first unreferenced unpinned frame.  Two full
   sweeps suffice (the first clears every refbit); if none is found
   the pool is exhausted.  Called with the latch held. *)
let victim t =
  let n = Array.length t.arr in
  let rec go steps =
    if steps > 2 * n then raise (Exhausted n)
    else begin
      let f = t.arr.(t.hand) in
      t.hand <- (t.hand + 1) mod n;
      if f.pins > 0 then go (steps + 1)
      else if f.page_id < 0 then f
      else if f.refbit then begin
        f.refbit <- false;
        go (steps + 1)
      end
      else f
    end
  in
  go 1

(* Write back and forget the victim's current page. Latch held. *)
let write_back t f =
  if f.page_id >= 0 then begin
    if f.dirty then begin
      Pager.write t.pager f.page_id f.buf;
      f.dirty <- false;
      t.flushes <- t.flushes + 1;
      Jqi_obs.Obs.Counter.incr c_flushes
    end;
    Hashtbl.remove t.table f.page_id;
    f.page_id <- -1;
    t.evictions <- t.evictions + 1;
    Jqi_obs.Obs.Counter.incr c_evictions
  end

(* Page I/O under the pool latch: single-latch design, see header
   comment. *)
let pin t pid =
  Mutex.protect t.latch (fun () ->
      check_open t;
      match Hashtbl.find_opt t.table pid with
      | Some f ->
          f.pins <- f.pins + 1;
          f.refbit <- true;
          t.hits <- t.hits + 1;
          Jqi_obs.Obs.Counter.incr c_hits;
          f
      | None ->
          t.misses <- t.misses + 1;
          Jqi_obs.Obs.Counter.incr c_misses;
          let f = victim t in
          write_back t f;
          Pager.read t.pager pid f.buf;
          f.page_id <- pid;
          f.pins <- 1;
          f.dirty <- false;
          f.refbit <- true;
          Hashtbl.replace t.table pid f;
          f)

let unpin ?(dirty = false) t f =
  Mutex.protect t.latch (fun () ->
      if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: frame is not pinned";
      f.pins <- f.pins - 1;
      if dirty then f.dirty <- true)

let with_page t pid fn =
  let f = pin t pid in
  Fun.protect ~finally:(fun () -> unpin t f) (fun () -> fn f.buf)

let with_page_rw t pid fn =
  let f = pin t pid in
  Fun.protect ~finally:(fun () -> unpin ~dirty:true t f) (fun () -> fn f.buf)

(* Victim write-back may do page I/O under the latch (see header). *)
let allocate t kind =
  Mutex.protect t.latch (fun () ->
      check_open t;
      let pid = Pager.allocate t.pager in
      let f = victim t in
      write_back t f;
      Bytes.fill f.buf 0 (Bytes.length f.buf) '\000';
      Page.set_kind f.buf kind;
      f.page_id <- pid;
      f.pins <- 0;
      f.dirty <- true;
      f.refbit <- true;
      Hashtbl.replace t.table pid f;
      pid)

(* Latch held across the write-back sweep and fsync: single-latch
   design, see header. *)
let flush_locked t =
  Array.iter
    (fun f ->
      if f.page_id >= 0 && f.dirty then begin
        Pager.write t.pager f.page_id f.buf;
        f.dirty <- false;
        t.flushes <- t.flushes + 1;
        Jqi_obs.Obs.Counter.incr c_flushes
      end)
    t.arr;
  Pager.sync t.pager

let flush t =
  Mutex.protect t.latch (fun () ->
      check_open t;
      flush_locked t)

let pinned t =
  Mutex.protect t.latch (fun () ->
      Array.fold_left (fun acc f -> acc + f.pins) 0 t.arr)

let resident t = Mutex.protect t.latch (fun () -> Hashtbl.length t.table)

let stats t =
  Mutex.protect t.latch (fun () ->
      { hits = t.hits; misses = t.misses; evictions = t.evictions;
        flushes = t.flushes })

let reset_stats t =
  Mutex.protect t.latch (fun () ->
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0;
      t.flushes <- 0)

let close t =
  Mutex.protect t.latch (fun () ->
      if not t.closed then begin
        flush_locked t;
        t.closed <- true;
        Pager.close t.pager
      end)
