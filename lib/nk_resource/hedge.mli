(** Hedged-request governor (tail tolerance).

    A token bucket refilled per primary fetch at [rate] (default 5%)
    and spent one token per hedge, so backup fetches are bounded to
    that fraction of total fetch load by construction — hedging can
    never become the storm it is meant to prevent. Also computes the
    hedge delay: the upstream's p95 latency from an
    {!Nk_telemetry.Metrics.Histogram}, with a fallback until enough
    samples exist. Issue/win/cancel events land in the
    [hedge.issued] / [hedge.wins] / [hedge.cancelled] counters of
    [metrics]. *)

type t

val default_rate : float

val create : rate:float -> ?metrics:Nk_telemetry.Metrics.t -> unit -> t
(** [rate] must be in (0, 1]; the bucket holds [max 1 (100 * rate)]
    tokens (5 at the default rate) and starts full.
    Events are counted into [metrics] (a private registry when
    absent). *)

val note_primary : t -> unit
(** Record one primary fetch: earn [rate] tokens (capped at burst). *)

val try_hedge : t -> bool
(** Spend one token and count [hedge.issued]; [false] when the bucket
    is dry (no hedge this time). *)

val won : t -> unit
(** The backup answered first: count [hedge.wins]. *)

val cancelled : t -> unit
(** The primary answered first and the backup's (eventual) response
    was discarded: count [hedge.cancelled]. *)

val delay :
  ?histogram:Nk_telemetry.Metrics.Histogram.h ->
  fallback:float ->
  unit ->
  float
(** The hedge delay: p95 of the histogram when it holds at least 20
    observations, else [fallback]. *)
