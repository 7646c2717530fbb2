(** One upstream-call path: a node's circuit breakers and retry budget
    behind a single ticket-based interface.

    Every internal hop a node makes (origin fetch, cooperative-cache
    peer, hedged primary, diffusion offload) asks {!acquire} first. An
    admitted call gets a {!ticket}, and {!settle} reports its outcome
    exactly once: the breaker advances, and a success refills the
    caller's retry budget. A second [settle] on the same ticket raises,
    so "every admitted upstream call is accounted exactly once" holds
    by construction, and {!outstanding} drains to zero once the node is
    quiet.

    Breakers are created lazily, one per upstream key
    (["origin:<site>"], ["peer:<node>"], ["offload:<node>"]). Time
    comes from an injected clock, as in {!Breaker}. Every rejected
    acquire counts ["breaker-short-circuits"] in [metrics], which the
    breakers and the retry budget share. *)

type t

type ticket
(** One admitted upstream call, owed exactly one {!settle}. *)

val create :
  Breaker.config ->
  retry_ratio:float ->
  clock:(unit -> float) ->
  metrics:Nk_telemetry.Metrics.t ->
  t
(** The breaker settings are passed to every {!Breaker.create}.
    [retry_ratio > 0] enables a {!Retry_budget} with that refill per
    success; [0] runs without one. *)

val acquire : t -> string -> [ `Proceed of ticket | `Reject of float ]
(** Ask the breaker of upstream [key] to send one call. [`Reject retry]
    records nothing but the short-circuit count; [retry] is the seconds
    until the next probe window. *)

val settle : ?budget:string -> ticket -> bool -> unit
(** [settle ?budget ticket ok] reports the call's outcome to its
    breaker; on success it also refills the retry budget of [budget]
    (none when omitted).
    @raise Invalid_argument when the ticket was already settled. *)

val record : t -> budget:string -> string -> bool -> unit
(** {!settle} for a call that never held a ticket (a hedged backup
    that won its race): the outcome of upstream [key], recorded as if
    it had been acquired. *)

val retry : t -> ?deadline:Deadline.t -> string -> [ `Granted | `Refused | `Unbudgeted ]
(** [retry t ?deadline upstream] asks for one more attempt against the
    [upstream] budget class.
    [`Granted] spent exactly one token. [`Refused] spent none: the
    bucket is dry, or [deadline] has no time left. [`Unbudgeted]: the
    node runs without a retry budget. *)

val open_breakers : t -> string list
(** Keys of the breakers not in the closed state, sorted. *)

val outstanding : t -> int
(** Tickets acquired and not yet settled. *)
