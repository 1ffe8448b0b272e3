(** Observability: hierarchical spans, named counters and histograms.

    A zero-dependency instrumentation layer for the inference and join
    engines.  Everything is registered in a process-global registry and is
    inert until {!set_enabled}[ true]: the hot-path cost of a disabled
    {!Counter.incr} or {!span} is one flag load and a branch — no
    allocation, no clock read.

    Spans nest ({!span} within {!span} builds a tree), carry string
    attributes, and export both as an ASCII summary tree
    ({!Report.render}) and as Chrome-trace-format JSON ({!trace_json})
    loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    Counters and histograms are shared across domains without locking;
    concurrent increments are memory-safe but may lose updates, which is
    acceptable for metrics.  The span stack is per-process and must only be
    used from the main domain. *)

(** {1 Global switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Zero every counter and histogram and drop all recorded spans.
    Registered counters stay registered. *)
val reset : unit -> unit

(** {1 Counters} *)

module Counter : sig
  type t

  (** [make name] registers (or retrieves) the process-global counter
      [name].  Calling [make] twice with the same name returns the same
      counter. *)
  val make : string -> t

  (** O(1); a no-op while disabled. *)
  val incr : t -> unit

  (** O(1); a no-op while disabled. *)
  val add : t -> int -> unit

  val name : t -> string
  val value : t -> int

  (** Current value of the counter registered under [name]; 0 when no such
      counter exists. *)
  val find : string -> int
end

(** {1 Histograms} *)

module Histogram : sig
  type t

  (** Same registry contract as {!Counter.make}. *)
  val make : string -> t

  (** Record one observation; a no-op while disabled.  Constant-time:
      count/sum/min/max plus a power-of-two bucket. *)
  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float
  val mean : t -> float

  (** Upper bound of the bucket containing the [q]-quantile (q in [0,1]);
      [nan] when empty.  Accurate to a factor of 2 — enough to tell µs from
      ms from s. *)
  val quantile : t -> float -> float
end

(** {1 Spans} *)

(** [span name f] runs [f ()] inside a span: nested calls build a tree,
    the monotonic start/stop times are recorded for the trace, and the
    span closes even when [f] raises.  While disabled this is exactly
    [f ()]. *)
val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Monotonic (non-decreasing) clock in seconds since an arbitrary
    process-local epoch — what spans are timed with. *)
val now : unit -> float

(** {1 Export} *)

(** The recorded spans as a Chrome-trace-format object
    [{"traceEvents": [...]}] of ["ph": "X"] complete events (microsecond
    [ts]/[dur], span attributes under ["args"]). *)
val trace_json : unit -> Jqi_util.Json.t

(** [save_trace path] writes {!trace_json} to [path]. *)
val save_trace : string -> unit

(** {1 Metrics snapshot} *)

module Report : sig
  type histogram_summary = {
    h_count : int;
    h_sum : float;
    h_mean : float;
    h_min : float;  (** [nan] when empty *)
    h_max : float;  (** [nan] when empty *)
  }

  type span_summary = {
    s_path : string;  (** slash-joined ancestry, e.g. ["inference.run/strategy.choose"] *)
    s_name : string;
    s_depth : int;
    s_calls : int;
    s_total : float;  (** summed wall-clock seconds *)
  }

  (** An immutable snapshot benches and tests can assert against. *)
  type t = {
    counters : (string * int) list;  (** sorted by name; zero-valued counters included *)
    histograms : (string * histogram_summary) list;  (** sorted by name *)
    spans : span_summary list;  (** pre-order (parents before children) *)
  }

  val snapshot : unit -> t

  (** Counter value in the snapshot; 0 when absent. *)
  val counter : t -> string -> int

  val to_json : t -> Jqi_util.Json.t

  (** Counter/histogram tables and the span tree, rendered with
      [Util.Ascii_table]. *)
  val render : t -> string
end
