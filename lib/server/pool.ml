(* Domain-based worker pool with a bounded job queue.

   The listener's connection threads produce protocol requests; the
   pool's worker domains consume them.  The queue is bounded: when it is
   full, [submit]/[async] refuse immediately ([Shed]/[false]) instead of
   buffering without limit — the caller turns that into a typed [busy]
   error frame, which is the server's backpressure signal.  Shedding is
   counted exactly in [stats] and best-effort in the [server.shed] Obs
   counter; queue depth at each accepted submission feeds the
   [server.queue_depth] Obs histogram.

   One mutex guards the queue and counters; workers block on a condition
   variable.  Jobs are closures — [submit] parks the calling thread on a
   per-call cell until its job ran, re-raising whatever the job raised,
   so a worker can never die of a job's exception. *)

module Obs = Jqi_obs.Obs

let c_jobs = Obs.Counter.make "server.pool.jobs"
let c_shed = Obs.Counter.make "server.shed"
let h_depth = Obs.Histogram.make "server.queue_depth"

type 'a outcome = Done of 'a | Shed

type stats = {
  submitted : int;  (** accepted into the queue *)
  completed : int;
  shed : int;  (** refused because the queue was full *)
  max_depth : int;  (** deepest the queue has been *)
}

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  jobs : (unit -> unit) Queue.t [@lint.guarded_by "mutex"];
  capacity : int;
  mutable closing : bool [@lint.guarded_by "mutex"];
  mutable submitted : int [@lint.guarded_by "mutex"];
  mutable completed : int [@lint.guarded_by "mutex"];
  mutable shed : int [@lint.guarded_by "mutex"];
  mutable max_depth : int [@lint.guarded_by "mutex"];
  mutable domains : unit Domain.t list
      [@lint.allow "R9"];
      (* Written once in [create] before [t] escapes, read/cleared in
         [shutdown] after every worker has been joined — never raced. *)
}

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.jobs && not t.closing do
      Condition.wait t.not_empty t.mutex
    done;
    match Queue.take_opt t.jobs with
    | None ->
        (* Empty and closing: drained, so this worker is done. *)
        Mutex.unlock t.mutex;
        ()
    | Some job ->
        Mutex.unlock t.mutex;
        job ();
        Mutex.lock t.mutex;
        t.completed <- t.completed + 1;
        Mutex.unlock t.mutex;
        Obs.Counter.incr c_jobs;
        loop ()
  in
  loop ()

let create ?(capacity = 256) ~workers () =
  let workers = if workers < 1 then 1 else workers in
  let t =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      jobs = Queue.create ();
      capacity = (if capacity < 1 then 1 else capacity);
      closing = false;
      submitted = 0;
      completed = 0;
      shed = 0;
      max_depth = 0;
      domains = [];
    }
  in
  t.domains <- List.init workers (fun _ -> Domain.spawn (fun () -> worker t));
  t

let workers t = List.length t.domains
(* Enqueue [job] if there is room.  Returns the accepted flag; counters
   and the depth histogram are updated inside the lock. *)
let enqueue t job =
  Mutex.lock t.mutex;
  let accepted = (not t.closing) && Queue.length t.jobs < t.capacity in
  if accepted then begin
    Queue.add job t.jobs;
    t.submitted <- t.submitted + 1;
    let depth = Queue.length t.jobs in
    if depth > t.max_depth then t.max_depth <- depth;
    Condition.signal t.not_empty;
    Mutex.unlock t.mutex;
    Obs.Histogram.observe h_depth (float_of_int depth)
  end
  else begin
    t.shed <- t.shed + 1;
    Mutex.unlock t.mutex;
    Obs.Counter.incr c_shed
  end;
  accepted

let async t job =
  enqueue t (fun () ->
      try job () with _exn -> ()
      (* A fire-and-forget job's exception has nowhere to go; swallowing
         it keeps the worker alive.  [submit] jobs re-raise instead. *))

type 'a cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable state : [ `Pending | `Value of 'a | `Raised of exn ]
      [@lint.guarded_by "cm"];
}

let submit t f =
  let cell = { cm = Mutex.create (); cc = Condition.create (); state = `Pending } in
  let job () =
    let result = try `Value (f ()) with exn -> `Raised exn in
    Mutex.lock cell.cm;
    cell.state <- result;
    Condition.signal cell.cc;
    Mutex.unlock cell.cm
  in
  if not (enqueue t job) then Shed
  else begin
    Mutex.lock cell.cm;
    while cell.state = `Pending do
      Condition.wait cell.cc cell.cm
    done;
    let state = cell.state in
    Mutex.unlock cell.cm;
    match state with
    | `Value v -> Done v
    | `Raised exn -> raise exn
    | `Pending -> assert false
  end

let stats t =
  Mutex.protect t.mutex (fun () ->
      {
        submitted = t.submitted;
        completed = t.completed;
        shed = t.shed;
        max_depth = t.max_depth;
      })

let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []
