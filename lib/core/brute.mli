(** Brute-force reference implementations of the §3 definitions.

    Enumerate C(S) ⊆ PP(Ω) explicitly — exponential, test-oracle use
    only. *)

(** C(S) for a sample given as positive/negative signature lists. *)
val consistent_predicates :
  Omega.t -> pos:Jqi_util.Bits.t list -> neg:Jqi_util.Bits.t list ->
  Jqi_util.Bits.t list

(** C(S) of a live state (recovers positives from its history). *)
val consistent_with_state : State.t -> Jqi_util.Bits.t list

(** Cert± by definition: the label every θ ∈ C(S) gives the signature,
    if they all agree. *)
val certain_label_def : Jqi_util.Bits.t list -> Jqi_util.Bits.t -> Sample.label option

(** The original goal-dependent Uninf(S) definition: [Some α] when the
    example (t, α) — with α the goal's label for t — is uninformative. *)
val uninformative_def :
  Omega.t ->
  pos:Jqi_util.Bits.t list ->
  neg:Jqi_util.Bits.t list ->
  goal:Jqi_util.Bits.t ->
  Jqi_util.Bits.t ->
  Sample.label option
