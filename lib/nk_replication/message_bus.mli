(** The reliable messaging service (the JORAM stand-in, §3.3/§4).

    Topic-based publish/subscribe with exactly-once, per-sender-in-order
    delivery over the network simulator. Each subscription carries its
    own handler, so one member (a Na Kika node) can process several
    sites' update streams independently. Subscriptions are durable in
    the JORAM sense: a member that subscribes after messages were
    published receives the topic's backlog, so late-joining replicas
    converge.

    Delivery is acked: the receiver sends an ack back over the network,
    and an unacked message is retried with capped exponential backoff
    plus deterministic jitter. A message's retries share one record
    whose delivered flag the first arrival sets, so handlers still run
    exactly once under retries and the bus keeps nothing of a message
    once it settles. A message still unacked after 8 attempts is counted as
    a dead letter and abandoned (anti-entropy re-registration is the
    recovery path). Retry timers are daemon events: they never keep
    {!Nk_sim.Sim.run} alive. *)

type t

val create : ?seed:int -> Nk_sim.Net.t -> t
(** [seed] (default 42) drives the retry jitter. Retries back off from
    0.5 s, doubling up to 8 s: about 31 s of total retry coverage,
    enough to ride out short partitions. *)

val net : t -> Nk_sim.Net.t

val attach : t -> name:string -> host:Nk_sim.Net.host -> unit
(** Join the bus (idempotent). *)

val subscribe :
  t ->
  name:string ->
  topic:string ->
  handler:(payload:string -> from:string -> unit) ->
  unit
(** Subscribe the member to a topic. The handler runs at (simulated)
    delivery time; re-subscribing replaces the handler. The topic's
    backlog is replayed to the new subscriber. Raises
    [Invalid_argument] if [name] never attached. *)

val publish : t -> from:string -> topic:string -> payload:string -> unit
(** Deliver to every *other* subscribed member, in per-sender order. *)

val metrics : t -> Nk_telemetry.Metrics.t
(** The bus's own registry: ["bus.published"] / ["bus.delivered"] /
    ["bus.retries"] / ["bus.dead_letters"] counters and the
    ["bus.payload-bytes"] histogram. A dead letter is a message
    abandoned after exhausting its retry budget: none in a fault-free
    run. *)
