(** Per-upstream retry budgets (tail tolerance).

    A token bucket per upstream key ("origin:<site>", "peer", ...):
    each observed success refills [ratio] tokens (capped), each retry
    spends one. Healthy upstreams earn their retries; failing ones see
    the budget dry up instead of a retry storm, leaving the circuit
    breakers to trip on the genuine error rate. Refused retries
    increment the [retry.budget_exhausted] counter of [metrics]
    (labeled by upstream). *)

type t

val create : ratio:float -> metrics:Nk_telemetry.Metrics.t -> unit -> t
(** [ratio] is the refill per success and must be positive. Each
    bucket holds at most 8 tokens and starts full. *)

val success : t -> upstream:string -> unit

val try_retry : t -> upstream:string -> bool
(** Spend one token; [false] (and a [retry.budget_exhausted] count)
    when the bucket is dry. *)
