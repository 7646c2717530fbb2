(** The congestion-control loop of Fig. 6.

    For each tracked resource, CONTROL runs in two halves separated by a
    timeout that lets throttling take effect:

    - [begin_control]: when the resource is congested, fold interval
      usage into the averages, rank the active sites by usage, and
      throttle each proportionally to its contribution; when the
      resource is uncongested but nonrenewable, just fold usage.
    - [finish_control]: when congestion persists *despite* the
      throttling (the [final] congestion check), terminate the largest
      contributor's pipelines; otherwise restore normal operation.

    The caller (the Na Kika node) schedules the two halves on the
    simulated clock and supplies the enforcement callbacks. *)

type t

val create :
  accounting:Accounting.t ->
  is_congested:(final:bool -> Resource.t -> bool) ->
  throttle:(site:string -> fraction:float -> resource:Resource.t -> unit) ->
  unthrottle:(Resource.t -> unit) ->
  terminate:(site:string -> unit) ->
  events:Nk_telemetry.Events.t ->
  metrics:Nk_telemetry.Metrics.t ->
  t
(** Every throttle, termination, and restoration decision is recorded
    in [events] and [metrics]: a structured
    ["throttle"]/["terminate"]/["unthrottle"] event carrying the
    affected site, the resource, and (for throttles) the fraction —
    plus site-labeled ["monitor.throttles"] / ["monitor.terminations"]
    / ["monitor.unthrottles"] counters. *)

val begin_control : t -> Resource.t -> [ `Congested of (string * float) list | `Clear ]
(** The list pairs each throttled site with its throttle fraction. *)

val finish_control : t -> Resource.t -> [ `Terminated of string | `Unthrottled ]
