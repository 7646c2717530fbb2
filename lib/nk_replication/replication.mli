(** Script-style hard-state replication (§3.3), after Gao et al.

    Each node pairs a local {!Store} with the {!Message_bus}. An update
    is accepted at any node, applied per the site's strategy, and
    propagated; receivers resolve conflicts with a per-key version
    ordering (Lamport counter, node name as tie-break) — optimistic
    last-writer-wins. The [Primary] strategy forwards updates through a
    primary node first, giving serializability. *)

type strategy =
  | Optimistic (** apply locally, propagate to all nodes *)
  | Primary of string (** route through the named node for serializability *)

type node

val attach :
  bus:Message_bus.t ->
  name:string ->
  host:Nk_sim.Net.host ->
  store:Store.t ->
  site:string ->
  strategy ->
  node
(** Join the replication group for [site]. *)

val update : node -> key:string -> value:string -> bool
(** Accept an update at this node. Under [Optimistic] (or at the
    primary itself) the write applies locally and broadcasts; false
    means the local quota refused it. Under [Primary] at a non-primary
    replica the proposal is forwarded to the primary, which serializes,
    applies and broadcasts it — the local replica converges when the
    broadcast arrives. *)

val read : node -> key:string -> string option

val delete : node -> key:string -> unit
(** Deletions replicate like writes (tombstone value). *)

val keys : node -> prefix:string -> string list
(** Live (non-tombstoned) keys at this replica, sorted. *)

val start_anti_entropy : node -> unit
(** Every 30 simulated seconds, re-broadcast all keys this replica
    knows at their current versions. Receivers ignore versions they
    already have, so the cycle is idempotent; it is the recovery path
    for updates the bus dead-lettered during a partition that outlasted
    the retry budget. Runs as daemon events — it never keeps
    {!Nk_sim.Sim.run} alive. *)
