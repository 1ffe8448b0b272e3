(** Versioned JSON-lines wire protocol for the inference service.

    One frame per line.  Requests are
    [{"v":1,"id":N,"op":"...", ...}]; responses echo the id as
    [{"v":1,"id":N,"ok":true,"op":"...", ...}], or
    [{"v":1,"id":N,"ok":false,"op":"error","code":"...","message":"..."}]
    on failure.  The decoder never raises on wire input: truncated or
    garbage lines come back as a ready-to-send [Error] frame (with id 0
    when the id itself was unreadable).

    Version negotiation is a plain [hello] request listing the client's
    supported versions; the server answers [welcome] with the highest
    version both sides speak, and that version governs the connection. *)

(** The protocol version this build speaks. *)
val version : int

(** Highest mutually supported version, if any.  [negotiate versions] is
    over the client's advertised list. *)
val negotiate : int list -> int option

type request =
  | Hello of { versions : int list }
  | Load of { name : string option; path : string }
      (** register a CSV file in the catalog, optionally renamed *)
  | Open_session of { r : string; p : string; strategy : string }
  | Ask of { session : string }
  | Tell of { session : string; label : Jqi_core.Sample.label }
  | Save of { session : string }
  | Resume of {
      r : string;
      p : string;
      strategy : string option;  (** overrides the persisted name *)
      doc : Jqi_util.Json.t;  (** a [Session] document, v1 or v2 *)
    }
  | Open_kary of { relations : string list; strategy : string }
      (** open over an ordered list of catalog names; two names behave
          exactly like [Open_session] *)
  | Resume_kary of {
      relations : string list;
      strategy : string option;
      doc : Jqi_util.Json.t;  (** a [Session] document; v3 for k > 2 *)
    }
  | Delta of {
      relation : string;
      insert : string list list;
          (** rows to append, one cell list per row, parsed under the
              relation's schema like CSV cells ("" is NULL) *)
      delete : string list list;
          (** rows to remove, matched {e by value} — each claims one
              occurrence of an equal live row *)
    }
      (** fold a churn batch into a named relation; the server patches
          its caches and re-certifies every open session over it.  Both
          row lists may be omitted on the wire (empty). *)
  | Close of { session : string }
  | Stats

(** A question rendered for a client that has no relation data: the row
    indexes plus the cells, so it can show "does this pair join?". *)
type question = {
  q_session : string;
  q_class : int;
  q_r_row : int;
  q_p_row : int;
  q_r_cells : string list;
  q_p_cells : string list;
}

(** The k-ary rendering of {!question}: one row index and one cell row
    per relation, in session relation order.  Sessions opened over
    exactly two relations keep answering with the classic [Question]
    frame, so existing clients never see this op. *)
type kquestion = {
  k_session : string;
  k_class : int;
  k_rows : int list;
  k_cells : string list list;
}

type response =
  | Welcome of { version : int }
  | Loaded of { name : string; rows : int }
  | Opened of {
      session : string;
      classes : int;
      omega_width : int;
      cache_hit : bool;
    }
  | Question of question
  | Kquestion of kquestion
  | Done of {
      session : string;
      predicate : (string * string) list;
          (** attribute pairs of T(S+); k-ary sessions qualify both
              sides as ["rel.attr"] *)
      n_interactions : int;
    }
  | Saved of { session : string; doc : Jqi_util.Json.t }
  | Delta_applied of {
      d_relation : string;
      d_added : int;
      d_removed : int;
      d_cache_patched : int;
          (** universe-cache entries migrated incrementally *)
      d_cache_dropped : int;  (** entries evicted (rebuild on next use) *)
      d_recertified : string list;
          (** sessions carried over transparently, sorted *)
      d_stale : (string * string) list;
          (** (session id, reason) for sessions now refusing ask/tell *)
    }  (** answer to [Delta] *)
  | Closed of { session : string }
  | Stats_reply of {
      sessions : int;
      relations : string list;
      cache_hits : int;
      cache_misses : int;
      top_heap_words : int option;
          (** the server's peak major-heap size in words over all its
              domains ([Gc.quick_stat]); [None] from a server that
              predates the field *)
    }
  | Error of { code : string; message : string }

val equal_request : request -> request -> bool
val equal_response : response -> response -> bool

(** One-line frame renderings (no trailing newline). *)
val encode_request : id:int -> request -> string

val encode_response : id:int -> response -> string

(** Server side: a request line to (id, request), or the (id, [Error])
    frame to send back.  Never raises. *)
val decode_request : string -> (int * request, int * response) result

(** Client side: a response line to (id, response).  Never raises. *)
val decode_response : string -> (int * response, string) result
