(** DNS-style redirection of clients to nearby edge nodes (§3, §3.4).

    Coral's optional DNS redirection is modeled by choosing, per client,
    the proxy with the lowest estimated transfer time; [pick ~spread]
    randomizes among the closest few for the paper's "randomly chosen,
    but close-by proxies" load balancing (§5.2).

    The redirector is additionally {e health-aware}: nodes publish load
    reports (queueing delay, shed rate, liveness incarnation) and [pick]
    skips crashed proxies entirely while weighting among the close-by
    survivors by reported headroom, so a flash crowd drains toward the
    nodes with capacity to absorb it. *)

type t

type health = {
  queue_delay : float;  (** seconds of queued work the node reported *)
  shed_rate : float;  (** fraction of recent arrivals the node shed *)
  incarnation : int;  (** liveness epoch; bumped on restart *)
  reported_at : float;  (** simulated time of the report *)
}

val create : Nk_sim.Net.t -> t

val add_proxy : t -> Nk_sim.Net.host -> unit
(** Register a proxy; a no-op when one with the same host name is
    already registered. O(1). *)

val remove_proxy : t -> Nk_sim.Net.host -> unit
(** Also drops any stored health report for the proxy. *)

val proxies : t -> Nk_sim.Net.host list

val report :
  t ->
  host:string ->
  ?incarnation:int ->
  queue_delay:float ->
  shed_rate:float ->
  unit ->
  unit
(** Publish a load report for [host]. Reports carrying an incarnation
    lower than the stored one are stale (sent before a crash the
    redirector already heard about) and are ignored. *)

val health : t -> host:string -> health option

val set_staleness : t -> float -> unit
(** Bound on load-report age. A proxy whose last report is older than
    the bound is scored at the recovery-probe headroom floor (0.02)
    rather than as unknown/idle, so a node that went silent — partition,
    crash the liveness filter hasn't caught, wedged reporter — stops
    attracting redirected traffic beyond a trickle. Default: [infinity]
    (reports never go stale). *)

val pick : t -> ?spread:int -> rng:Nk_util.Prng.t -> client:Nk_sim.Net.host -> unit -> Nk_sim.Net.host option
(** The nearest live proxy, or with [spread = k > 1] a headroom-weighted
    choice among the [k] nearest ([spread] is clamped to the close-by
    live candidates). Crashed proxies are never returned. [None] when no
    live proxy is registered.

    Proxies rank by [Net.transfer_time_estimate] from the client, ties
    in {!proxies} order; "close-by" means within [2 * best + 0.1 ms].
    Exactly one draw is taken from [rng] whenever a proxy is returned.
    Nothing is cached per client: only the client itself and its
    {!Nk_sim.Net.linked} hosts can rank apart from the default estimate,
    so a pick ranks those few and walks the rest of the list in order
    only until it has its candidates: O(links + spread + crashed
    proxies passed) per pick. Links made after earlier picks take
    effect at once. *)
