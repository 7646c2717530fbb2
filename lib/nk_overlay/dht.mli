(** Soft-state key/value storage over the ring — the Coral stand-in.

    Values are TTL'd announcements ("node X holds a copy of URL Y");
    they live on the key's successor node, several announcements can
    coexist under one key, and everything expires unless re-announced —
    exactly the soft-state discipline cooperative caching needs (§3.4).
    Lookups report the routing hop count so callers can charge overlay
    latency. *)

type t

(** A DHT key: the key string with its ring id, hashed once by
    {!of_string}. A caller that touches one key several times (lookup,
    hedge replica set, announcement) builds it once and hands it to
    {!get_key}, {!replica_names} and {!put_key}. *)
module Key : sig
  type t

  val of_string : string -> t
  (** Hashes the string to its ring id (SHA-256, via {!Node_id.of_string}). *)
end

val create : unit -> t
(** Each key keeps at most 16 coexisting announcements (newest win),
    held by 2 ring nodes — the key's owner and its next distinct
    successor — so a lookup can fall back when the owner is down. A
    fixed seed drives the PRNG used for sloppy replica placement. *)

val set_hotspots :
  t -> halflife:float -> threshold:float -> replicas:int -> ttl:float -> unit -> unit
(** Enable hotspot detection and Coral-style sloppy replication
    (off by default). Every {!get} bumps the key's exponentially
    decayed request-rate estimate ([halflife] seconds);
    when a key's rate crosses [threshold] requests/second its
    announcements are copied onto up to [replicas] random live nodes
    drawn from the tail of the triggering lookup's path, and later
    lookups stop at the first live holder on their own path. Holders
    expire after [ttl] seconds, after which the ring reconverges to
    the no-replica equilibrium. Raises [Invalid_argument] on
    non-positive parameters. *)

val hotspots : t -> now:float -> (string * float) list
(** Keys whose decayed request rate currently meets the hotspot
    threshold, hottest first, with their estimated requests/second.
    Empty when hotspot detection is off. *)

val sloppy_replicas : t -> int
(** Number of keys with an active (unexpired) sloppy placement. *)

val sweep : t -> now:float -> unit
(** Expire stale sloppy placements (removing the copies from their
    holders) and prune decayed rate entries. {!get} already expires
    the placement of the key it touches; the cluster's sweeper runs
    [sweep] for idle keys every half placement TTL. *)

val set_liveness : t -> (string -> bool) -> unit
(** Install the liveness oracle (by node name) that {!get} consults
    before reading a replica; defaults to everyone-live. Wired to the
    fault plan's crash windows by the cluster builder. *)

val metrics : t -> Nk_telemetry.Metrics.t
(** The overlay's own registry: ["dht.puts"], ["dht.gets"],
    ["dht.get-hits"] counters and the ["dht.hops"] routing-path-length
    histogram; with hotspots enabled also the ["dht.hotspots"] gauge
    (active sloppy placements), the ["dht.hotspot_replications"]
    counter (placements created) and the ["dht.sloppy_hits"] counter
    (lookups served by a sloppy holder). The bench harness merges it
    into per-experiment dumps. *)

val join : t -> string -> Node_id.t
(** Add a node by name; returns its ring id. *)

type lookup = { values : string list; hops : int; fallbacks : int; owner : Node_id.t option }

val put_key : t -> now:float -> from:string -> key:Key.t -> value:string -> ttl:float -> int
(** Announce [value] under [key] at every replica (and every active
    sloppy holder); returns the routing hop count. Each target stores
    the new announcement ahead of its live entries for other values,
    newest first, at most 16. Targets that held one physical list
    (written by one earlier put, and untouched by expiry since) get one
    physical list again: it is built once, not once per target. Raises
    [Invalid_argument] if [from] never joined. *)

val put : t -> now:float -> from:string -> key:string -> value:string -> ttl:float -> int
(** [put_key] on [Key.of_string key]. *)

val get_key : t -> now:float -> from:string -> key:Key.t -> lookup
(** Live values under [key] (newest first), read from the first live
    replica. [fallbacks] counts crashed replicas skipped on the way
    (each also charged as one extra routing hop and counted in the
    ["dht.fallbacks"] metric). With hotspots enabled, a lookup that
    passes a live sloppy holder on its path stops there instead —
    fewer hops, bit-identical values (puts write through to active
    holders). *)

val get : t -> now:float -> from:string -> key:string -> lookup
(** [get_key] on [Key.of_string key]. *)

val replica_names : t -> key:Key.t -> string list
(** The live members of [key]'s replica set by node name — the owner
    plus its next distinct ring successors ({!Ring.successors}), in
    ring order. The hedging layer uses this to find the next live
    replica when a lookup's announced holders are exhausted. *)
