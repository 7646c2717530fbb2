(** Deployment builder: a simulated Na Kika network in a few calls.

    A cluster owns the simulator, the network, the simulated web, the
    overlay DHT, the messaging bus, the DNS redirector, and the
    [nakika.net] origin that hosts the administrative-control scripts
    at their well-known locations. Experiments add proxies, content
    origins, and client hosts, then drive the simulator. *)

type t

val create :
  ?seed:int ->
  ?default_latency:float ->
  ?default_bandwidth:float ->
  ?client_wall:string ->
  ?server_wall:string ->
  ?faults:Nk_faults.Plan.t ->
  unit ->
  t
(** Walls default to the permissive Admin-configuration scripts.
    [faults] installs a fault-injection plan: the network consults it
    for drops/partitions/latency spikes and host crashes, DHT reads
    skip crashed replicas, and origins consult it for fail/slow
    windows. *)

val sim : t -> Nk_sim.Sim.t
val net : t -> Nk_sim.Net.t
val web : t -> Nk_sim.Httpd.t
val dht : t -> Nk_overlay.Dht.t
val bus : t -> Nk_replication.Message_bus.t
val redirector : t -> Nk_overlay.Redirector.t
val nakika_origin : t -> Origin.t
(** Override walls at runtime with [Origin.set_static] — cached copies
    on the nodes expire per the scripts' Cache-Control, exactly how the
    paper ships policy updates (§3.2). *)

val add_proxy : t -> name:string -> ?cpu_speed:float -> ?config:Config.t -> unit -> Node.t

val add_origin : t -> name:string -> ?cpu_speed:float -> ?sign_key:string -> unit -> Origin.t
(** With [sign_key], the origin publishes §6 integrity headers on its
    cacheable static content. *)

val add_client : t -> name:string -> Nk_sim.Net.host
(** A host that issues requests (load generators attach here). *)

val connect : t -> Nk_sim.Net.host -> Nk_sim.Net.host -> latency:float -> bandwidth:float -> unit

val fetch :
  t ->
  client:Nk_sim.Net.host ->
  ?proxy:Node.t ->
  ?timeout:float ->
  Nk_http.Message.request ->
  (Nk_http.Message.response -> unit) ->
  unit
(** Issue a request through a proxy (redirector-chosen when omitted);
    falls back to direct origin fetch when no proxies exist. With
    [timeout], the callback receives a synthesized 504 after that many
    seconds if no response arrived — under fault injection this is what
    guarantees every client gets an answer. *)

val run : t -> unit
