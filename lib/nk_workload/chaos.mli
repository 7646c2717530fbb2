(** The two fault scenarios, written once.

    Na Kika's nodes crash and lose messages (DESIGN §8); these runs
    show the stack degrades instead of wedging. [nakika chaos], the
    [faults] and [overload] experiments and the chaos test suite all
    run them from here, so a schedule behaves the same in each.

    - {b Chaos}: four proxies and one origin; two clients issue 30
      requests, one every 2 s from [+1 s], round-robined over the
      proxies, each with a 15 s client timeout. The run stops at
      [+120 s].
    - {b Overload}: three proxies, a healthy origin and a fragile one,
      three clients. A 600-request flash crowd for one hot page arrives
      from [+5 s] (one every 2 ms, redirector-routed) beside a stream
      of 30 requests, one a second from [+1 s], for a page the fragile
      origin serves with a 2 s max-age. Client timeout 10 s; the run
      stops at [+90 s].

    Times count from {!Nk_sim.Sim.epoch}. A run only builds the cluster
    and schedules the workload; every request goes out through one
    {!Driver.recorder}, which records what came back. Callers compute
    their own counts, percentiles and telemetry from the answers. *)

type run = {
  cluster : Nk_node.Cluster.t;
  proxies : Nk_node.Node.t list;  (** In creation order. *)
  origins : Nk_node.Origin.t list;
      (** [www.example.edu], then (overload only) the fragile
          [dead.example.org]. *)
  issued : int;
  answers : Driver.answer list;  (** In answer order. *)
}

val random_plan : int -> Nk_faults.Plan.t
(** {!Nk_faults.Plan.random} over the chaos scenario's proxies, seeded
    (and so its plan seed) by the argument. *)

val chaos_baseline : unit -> Nk_faults.Plan.t
(** The fault-free acceptance plan (seed 3). *)

val chaos_degraded : unit -> Nk_faults.Plan.t
(** The degraded acceptance plan (seed 3): 10% uniform message drops
    plus a partition of nk-a,b from nk-c,d between [+10 s] and
    [+25 s]. *)

val run_chaos : seed:int -> Nk_faults.Plan.t -> run
(** The chaos scenario under the plan, on a cluster seeded by [seed]. *)

val overload_baseline : unit -> Nk_faults.Plan.t
(** The fault-free overload plan (seed 5). *)

val overload_degraded : unit -> Nk_faults.Plan.t
(** The degraded overload plan (seed 5): nk-b crashes at [+5.6 s], as
    the crowd peaks, and restarts at [+21 s]; [dead.example.org] fails
    from [+4 s], just before the stream's cached copy expires, to
    [+90 s]. *)

val run_overload : seed:int -> Nk_faults.Plan.t -> run
(** The overload scenario under the plan, on a cluster seeded by
    [seed]. *)

val merge_fault_telemetry : into:Nk_telemetry.Metrics.t -> run -> unit
(** Merge the run's network, message-bus and DHT registries, which
    count drops, lost callbacks, crashes, retries, dead letters and
    replica fallbacks. *)
