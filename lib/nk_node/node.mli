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
  ?dht:Nk_overlay.Dht.t ->
  ?bus:Nk_replication.Message_bus.t ->
  ?config:Config.t ->
  unit ->
  t
(** Registers the node as the HTTP server on [host] (hostname =
    [Net.host_name host]) and, when given a DHT, joins the overlay. *)

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
(** The node's own overload view — what it publishes to the redirector
    and exports as [health.*] gauges every {!health_report_interval}. *)

val health_report_interval : float
(** The period (1 s) of the node's load reports and [health.*] gauges. *)

val pressure : t -> float
(** The scalar diffusion load signal in [0, 1]: queueing delay, shed
    rate and admission-queue occupancy combined (monotone in each;
    crosses 0.5 at the admission delay target). Meaningful whether or
    not diffusion is enabled. *)

val observe_neighbor :
  t -> name:string -> pressure:float -> incarnation:int -> distance:float -> unit
(** Feed one neighbor load observation into the diffusion pressure
    table (the cluster calls this from its load-report cycle).
    Incarnation-guarded; self-observations and calls on a
    diffusion-disabled node are no-ops. *)

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
