(** Circuit breakers for upstream fetches.

    A dead upstream (origin server, cooperative-cache peer) should cost
    one probe per recovery window, not a full timeout per request. The
    breaker watches the outcomes the caller reports and walks the
    classic three-state machine:

    - {b closed}: requests flow; consecutive failures (or a windowed
      error rate over a minimum sample count) trip it open.
    - {b open}: requests are rejected immediately with the time left
      until the next probe; the caller degrades (stale-if-error, 503
      Retry-After) instead of waiting for a timeout.
    - {b half-open}: after the cooldown, exactly one probe is admitted.
      Success closes the breaker and resets the backoff; failure
      re-opens it with a doubled (capped) cooldown.

    Time comes from an injected clock so breakers run on the simulated
    clock and in unit tests alike. Every trip and probe is counted in
    [metrics] (["breaker.opens"], ["breaker.probes"]), labeled by the
    upstream name. *)

type t

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int; (** consecutive failures tripping it open *)
  error_rate : float;
      (** windowed error rate that also trips it, over >= 8 samples *)
  window : float; (** error-rate observation window (s) *)
  cooldown : float; (** initial open-state cooldown before the half-open probe *)
  max_cooldown : float; (** backoff doubling cap *)
}

val default : config

val validate : config -> string list
(** A finding per value that is wrong under any interpretation; [[]] accepts. *)

val create :
  name:string ->
  config ->
  clock:(unit -> float) ->
  metrics:Nk_telemetry.Metrics.t ->
  t
(** [name] identifies the upstream in metrics labels. *)

val acquire : t -> [ `Proceed | `Reject of float ]
(** Ask to send one request. [`Reject retry] means the breaker is open;
    [retry] is the seconds until the next probe window. [`Proceed] from
    a half-open breaker claims the single probe slot — the caller must
    report {!success} or {!failure} for the state machine to advance. *)

val success : t -> unit

val failure : t -> unit

val state : t -> state
