(** Admission control and load shedding.

    Under sustained overload, queueing requests unboundedly makes every
    client pay a timeout; shedding early with a cheap [503 Retry-After]
    keeps the node's goodput at its capacity and bounds queueing delay
    (C3PO's proactive computation-congestion control, CoDel's
    delay-not-length signal).

    The controller watches the queueing delay the caller measures at
    each arrival (for a Na Kika node, the host's CPU backlog):

    - delay above [target] for a full [interval] flips the node into a
      {e shedding} state; the first arrival that sees delay back below
      the target flips it out (hysteresis, so bursts don't shed).
    - while shedding, new arrivals are rejected with a [Retry-After]
      estimate of when the backlog will have drained.
    - independently, the queue is bounded at [capacity] concurrent
      admitted requests, with per-site fair shares: once the queue is
      half full, a site holding more than its fair slice is shed even
      if the node is not yet in delay overload — one hot site cannot
      starve the rest. By default a site's slice is
      [capacity / active sites]; with a {!Shares} table (lowered from a
      provisioning plan) declared sites get their reserved fraction of
      capacity and undeclared sites split the unreserved remainder.
      When shares are declared, slice enforcement is sticky: after the
      queue fills it keeps binding for one [interval] even if the queue
      momentarily drains, so synchronized completion batches cannot let
      a greedy site refill past its declared slice.

    Every decision is counted in [metrics] ([admission.sheds] labeled
    by site and reason, [admission.queue_delay] histogram). The clock is
    injected so the controller runs on simulated time. *)

type t

type verdict = Admitted | Shed of { retry_after : float; reason : string }

type config = {
  target : float;
      (** queueing-delay target (s); delay above it for a full
          [interval] triggers shedding *)
  interval : float; (** detection interval for the delay target *)
  capacity : int;
      (** hard bound on concurrently admitted requests, with per-site
          fair shares *)
  shares : (string * float) list;
      (** ordered [(pattern, fraction)] guaranteed queue slices per site
          (a {!Shares} table), lowered from a provisioning plan's
          [site "..." {share >= N%}] rules. Empty: active sites split
          the queue evenly. *)
}

val default : config

val validate : config -> string list
(** A finding per value that is wrong under any interpretation; [[]] accepts. *)

val create :
  config -> clock:(unit -> float) -> metrics:Nk_telemetry.Metrics.t -> t
(** Shed rates are reported over a 5 s window. *)

val offer : t -> site:string -> queue_delay:float -> verdict
(** Decide one arrival. On [Admitted] the request occupies a queue slot
    until the caller invokes {!release}; [Shed] carries the reason
    ([overload], [queue-full], [fair-share]) and a retry hint in
    seconds. *)

val release : t -> site:string -> unit
(** The admitted request finished (any outcome); frees its slot. *)

val reset : t -> unit
(** Drop all occupancy and shedding state (the host crashed: admitted
    requests died with it and must not haunt the queue after restart). *)

val queue_length : t -> int

val shedding : t -> bool
(** Is the controller currently in the delay-overload shedding state? *)

val shed_rate : t -> float
(** Fraction of arrivals shed over the current reporting window (falls
    back to the last completed window when the current one is empty) —
    the load signal nodes publish to the redirector. *)
