(** Socket front end: Unix-domain/TCP listener over a sharded
    [Manager], with per-connection newline framing and a bounded worker
    [Pool].

    Each accepted connection gets a reader thread that buffers bytes
    into complete JSON-lines frames ({!Framing}), decodes them, and runs
    each request on the pool's worker domains — one request per
    connection in flight, so responses keep request order.  When the
    pool's queue is full the request is shed with a typed [busy] error
    frame instead of buffering unboundedly; oversized lines earn an
    [overflow] error frame and a clean disconnect; garbage earns the
    codec's error frame.  Nothing a client sends can raise out of the
    server.

    Obs: [server.listener.accepted] / [frames] / [overflow] counters,
    plus the pool's [server.shed] and [server.queue_depth]. *)

(** Incremental newline framing, exposed for tests and other
    transports.  Feed arbitrary chunks; take complete frames.  The
    event sequence is invariant under how the byte stream is split into
    chunks, trailing [\r] is stripped (CRLF tolerance), and a line
    longer than [max_frame] yields [Overflow] once and swallows the
    rest of that line. *)
module Framing : sig
  type event =
    | Frame of string  (** one complete line, newline and CR stripped *)
    | Overflow of int  (** buffered length when the bound was crossed *)
    | Await  (** nothing complete buffered — feed more bytes *)

  type t

  (** [max_frame] defaults to 1 MiB. *)
  val create : ?max_frame:int -> unit -> t
  val feed : t -> string -> unit

  (** Pop the next event; [Await] when no complete frame is buffered. *)
  val next : t -> event
end

type addr =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** numeric host, port; port 0 picks one *)

val addr_to_string : addr -> string

type t

(** Bind, listen and start accepting.  [sweep_every] (seconds) runs
    [Manager.sweep] periodically on a background thread; omitted or
    non-positive disables sweeping.  [max_frame] bounds a single request
    line. *)
val start :
  ?max_frame:int -> ?sweep_every:float -> pool:Pool.t -> Manager.t -> addr -> t

(** The bound address — for [Tcp (_, 0)], the actual port. *)
val address : t -> addr

(** Currently open connections. *)
val connections : t -> int

(** Stop accepting, disconnect every client, join every thread, and (for
    Unix-domain sockets) remove the socket file.  The pool is the
    caller's to shut down. *)
val stop : t -> unit
