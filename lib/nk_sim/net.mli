(** Hosts, links and CPUs.

    Links carry latency plus a shared-bandwidth pipe (transfers on the
    same directed link serialize through it, which is how the 8 Mbps
    WAN-emulation cap and PlanetLab's per-project bandwidth limits are
    modeled). Each host also has a single CPU on which work items
    queue; CPU saturation is what produces the capacity results of
    §5.1. *)

type t

type host

val create : Sim.t -> ?default_latency:float -> ?default_bandwidth:float -> unit -> t
(** Defaults model a switched 100 Mbit LAN: 0.2 ms latency,
    12.5 MB/s. *)

val sim : t -> Sim.t

val metrics : t -> Nk_telemetry.Metrics.t
(** The network-layer registry: [net.dropped] (messages lost to drops or
    partitions), [net.lost-callbacks] (deliveries and CPU completions
    suppressed because their host crashed), [node.crashes]. *)

val set_faults : t -> Nk_faults.Plan.t -> unit
(** Install a fault plan. Every subsequent [send] consults it for drops,
    partitions and latency spikes; crash instants are turned into daemon
    events that clear the crashed host's CPU queue; callbacks captured
    by a host that then crashes are suppressed rather than fired after
    restart. *)

val faults : t -> Nk_faults.Plan.t option

val host_down : t -> host -> bool
(** Is the host currently inside a crash window of the installed plan?
    Always false without a plan. *)

val add_host : t -> name:string -> ?cpu_speed:float -> unit -> host
(** [cpu_speed] scales CPU work: 1.0 = reference machine (the paper's
    2.8 GHz Pentium 4). *)

val host_name : host -> string

val connect : t -> host -> host -> latency:float -> bandwidth:float -> unit
(** Set symmetric link parameters between two hosts (overrides the
    defaults for that pair). *)

val linked : t -> host -> host list
(** The hosts [connect]ed to this one, each once, most recently linked
    first. Every other pair uses the default link parameters, so these
    (and the host itself) are the only destinations whose
    [transfer_time_estimate] from this host can differ from the
    default one. *)

val set_egress_limit : t -> host -> float -> unit
(** Cap the host's total outbound bandwidth (bytes/second): all
    transfers leaving the host additionally serialize through one
    shared pipe. Models an origin server's uplink or a PlanetLab
    node's per-project bandwidth cap. *)

val send : t -> src:host -> dst:host -> size:int -> (unit -> unit) -> unit
(** Deliver [size] bytes from [src] to [dst]; the callback fires at
    delivery time (latency + queueing through the shared pipe). *)

val transfer_time_estimate : t -> src:host -> dst:host -> size:int -> float
(** Latency + size/bandwidth ignoring current queueing; used by the
    redirector's proximity metric. *)

val cpu_run : t -> host -> seconds:float -> (unit -> unit) -> unit
(** Queue [seconds] of CPU work on the host; callback when it
    completes. [seconds] is divided by the host's [cpu_speed]. *)

val cpu_backlog : t -> host -> float
(** Seconds of queued CPU work not yet finished (0 when idle); the
    resource monitor reads this as the CPU congestion signal. *)

val bytes_sent : t -> host -> int
(** Total bytes this host has put on the wire; feeds bandwidth
    accounting. *)
