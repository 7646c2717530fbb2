(** Deterministic fault-injection plans.

    A {!t} is a declarative schedule of network and host failures that the
    simulator consults at delivery time: per-link drop probability, latency
    spikes, bidirectional partitions with scheduled heal times, host
    crash/restart windows, and slow or failing origin servers.

    The plan owns a splittable PRNG ({!Nk_util.Prng}) seeded at creation,
    so the same seed and the same sequence of queries reproduce the exact
    same fault schedule — no wall clock, no global randomness. Hosts are
    identified by their simulator host {e names}, and all times are
    absolute simulation times, which keeps this library independent of
    [nk_sim] (it sits below it in the dependency order).

    Probabilistic rules ([drop_link], [spike_link]) consume PRNG draws
    only when a matching rule exists, so adding unrelated rules does not
    perturb the fate of other links. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh, empty plan. Default seed 7. *)

val seed : t -> int

(** {1 Scheduling faults} *)

val drop_link :
  t -> ?src:string -> ?dst:string -> probability:float -> unit -> unit
(** Every message on a matching directed link is dropped with the given
    probability. Omitting [src] ([dst]) matches any source (destination).
    Multiple matching rules combine: the message is dropped if any rule
    fires. *)

val spike_link :
  t -> ?src:string -> ?dst:string -> probability:float -> extra:float -> unit -> unit
(** With the given probability, a message on a matching link suffers
    [extra] seconds of additional one-way latency. *)

val partition : t -> a:string list -> b:string list -> at:float -> heal:float -> unit
(** Between times [at] (inclusive) and [heal] (exclusive), all traffic
    between any host in [a] and any host in [b] — both directions — is
    dropped deterministically. *)

val crash : t -> host:string -> at:float -> ?restart:float -> unit -> unit
(** The host is down from [at] (inclusive) until [restart] (exclusive);
    omitting [restart] means it never comes back. Crashing clears the
    host's CPU queue, and callbacks captured before the crash must not
    fire after restart (the host's {!incarnation} changes). *)

val fail_origin : t -> host:string -> at:float -> until:float -> unit
(** The origin server on [host] answers every request with a 503
    between [at] and [until]. *)

val slow_origin : t -> host:string -> at:float -> until:float -> factor:float -> unit
(** The origin server's CPU cost per request is multiplied by [factor]
    between [at] and [until]. *)

val random : seed:int -> hosts:string list -> start:float -> t
(** A reproducible schedule drawn from [seed] (which also seeds the
    plan): drops of up to 30% on every link, a latency spike half the
    time, up to 2 partitions of [hosts] that heal within 10 s, and at
    most one crash/restart per host, all between [start + 5] and
    [start + 50]. The chaos soak and [nakika chaos] run these. *)

(** {1 Queries (called by the simulator)} *)

val link_fate : t -> now:float -> src:string -> dst:string -> [ `Deliver of float | `Drop ]
(** Fate of one message sent now from [src] to [dst]: [`Drop], or
    [`Deliver extra] with [extra >= 0.] seconds of added latency.
    Messages to a down destination are delivered (and discarded at the
    receiver by the epoch guard) rather than dropped here, so in-flight
    semantics stay with the simulator. *)

val is_down : t -> now:float -> string -> bool
(** Is the host inside a crash window at [now]? *)

val incarnation : t -> now:float -> string -> int
(** Number of crashes of this host with [at <= now]. A callback captured
    at incarnation [i] must not run once the incarnation has advanced. *)

val restart_time : t -> now:float -> string -> float option
(** If the host is down at [now], the absolute time it restarts
    ([None] if it never does). *)

val crash_times : t -> (string * float) list
(** All scheduled [(host, at)] crash instants, for the simulator to turn
    into crash events (CPU-queue clearing). *)

val origin_state : t -> now:float -> host:string -> [ `Ok | `Fail | `Slow of float ]
(** What the origin server on [host] should do with a request at [now]. *)

val describe : t -> string
(** One-line human summary of the schedule (rule counts), for logs. *)
