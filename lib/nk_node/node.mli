(** A Na Kika edge node: the proxy runtime of §4.

    One node ties together the proxy cache, the scripting pipeline with
    its stage/decision-tree caches and context accounting, cooperative
    caching through the DHT, hard state, access logging, and the
    congestion-based resource monitor. The node attaches to a simulated
    host and serves HTTP through {!Nk_sim.Httpd}; clients reach it with
    [Httpd.fetch_via] after DNS redirection.

    A node configured with [Config.plain_proxy] degenerates into the
    micro-benchmarks' baseline Apache-style proxy. *)

type t

val create :
  web:Nk_sim.Httpd.t ->
  host:Nk_sim.Net.host ->
  redirector:Nk_overlay.Redirector.t ->
  dht:Nk_overlay.Dht.t ->
  bus:Nk_replication.Message_bus.t ->
  ?config:Config.t ->
  unit ->
  t
(** Registers the node as the HTTP server on [host] (hostname =
    [Net.host_name host]) and, when [Config.enable_dht] holds, joins
    the cluster's [dht]. The cluster's [bus] carries hard-state
    replication and offloads. [redirector] is the cluster's one
    load-report table: the node's health tick reports into it, and its
    offload decisions read their candidates from it. *)

val host : t -> Nk_sim.Net.host

val name : t -> string

val config : t -> Config.t

val metrics : t -> Nk_telemetry.Metrics.t
(** The node's registry, shared with the proxy cache, the upstream
    breakers and the resource monitor. Unlabeled counters:
    ["requests"], ["responses"], ["rejected-throttle"],
    ["dropped-termination"], ["script-errors"], ["origin-fetches"],
    ["peer-fetches"], ["dht-hits"]; histogram ["latency"] (per-request
    service time at this node). Per-site instruments carry a
    [("site", _)] label ("site.requests", "site.latency", "script.fuel",
    "script.heap", "monitor.throttles", "monitor.terminations"). *)

val tracer : t -> Nk_telemetry.Tracer.t
(** Per-request span trees (a ring buffer of the 256 most recent
    completed traces; disabled when [Config.enable_tracing] is false). *)

val events : t -> Nk_telemetry.Events.t
(** Structured resource-control decisions: one ["throttle"] /
    ["terminate"] event per monitor action, with site and resource
    attributes. *)

val cache : t -> Nk_cache.Http_cache.t

val quarantine : t -> Nk_resource.Quarantine.t
(** The escalating ban windows of terminated sites. *)

val admission : t -> Nk_resource.Admission.t option
(** Front-door admission controller ([None] when [Config.admission]
    is). *)

val upstream : t -> Nk_resource.Upstream.t
(** The breakers and retry budget every upstream call (origin, peer,
    hedge primary, offload) goes through. *)

type health = {
  queue_delay : float;  (** current CPU backlog in seconds *)
  shed_rate : float;  (** fraction of recent arrivals shed *)
  shedding : bool;  (** admission currently in the shedding state *)
  open_breakers : string list;  (** breakers not in the closed state *)
  quarantined : string list;  (** sites currently serving a ban *)
}

val health : t -> health
(** The node's own overload view. A node has one health tick, a single
    [Sim.every] loop with a 1 s period: it computes this view once (and,
    when the node runs diffusion, its {!pressure}), sets the [health.*]
    gauges, resets admission on the first tick after a restart, and
    writes one load report into the redirector's table. *)

val pressure : t -> float
(** The scalar diffusion load signal in [0, 1]: queueing delay, shed
    rate and admission-queue occupancy combined (monotone in each;
    crosses 0.5 at the admission delay target). Meaningful whether or
    not diffusion is enabled. *)

val answer_once :
  t ->
  Nk_http.Message.request ->
  (Nk_http.Message.response -> unit) ->
  Nk_http.Message.response ->
  unit
(** The guard {!create} puts around every request's continuation: the
    first call answers, a second raises [Invalid_argument] (naming the
    node and the URL) from a fresh simulator event. *)

val await_fetch_opt :
  t ->
  via:Nk_sim.Net.host option ->
  timeout:float ->
  Nk_http.Message.request ->
  Nk_http.Message.response option
(** The timeout race of every origin ([via = None]) and peer hop:
    suspends the calling cothread until the response, or [None] after
    [timeout] seconds. A response takes the timer out of the queue. *)

val stage_cache_entries : t -> int
