(** The proxy cache: expiration-based HTTP caching with LRU eviction.

    Na Kika caches both original and processed content under the web's
    expiration-based consistency model (§2, §3.3). Time is always
    passed in explicitly so the cache runs on the simulated clock. *)

type t

val create : ?max_bytes:int -> ?metrics:Nk_telemetry.Metrics.t -> unit -> t
(** [max_bytes] bounds the summed body sizes (default 256 MiB). The
    cache counts into [metrics] (a private registry when absent):
    ["cache.hits"], ["cache.misses"], ["cache.stale-misses"],
    ["cache.insertions"], ["cache.evictions"], and the ["cache.bytes"]
    and ["cache.entries"] gauges. *)

val lookup : t -> now:float -> key:string -> Nk_http.Message.response option
(** Fresh hit or [None]. The returned response is a private copy.
    Expired entries are retained (until evicted) so they can be
    revalidated with a conditional request. *)

val lookup_stale : t -> key:string -> (Nk_http.Message.response * float) option
(** A private copy of the stored entry regardless of freshness, with its
    expiry time: the revalidation path's validator, and the bound a
    stale-if-error degradation path puts on how stale a served copy is.
    Does not count as a hit or miss. *)

val refresh : t -> key:string -> expiry:float -> unit
(** Extend a stored entry's freshness lifetime (after a 304 Not
    Modified). No-op when the key is absent. *)

val store : t -> now:float -> key:string -> expiry:float option -> Nk_http.Message.response -> bool
(** Store a copy and say whether it was kept. [expiry = None] (no
    freshness lifetime) and an expiry already past are not stored;
    oversized entries (> max_bytes) are refused. *)

val insert : t -> now:float -> key:string -> expiry:float option -> Nk_http.Message.response -> unit
(** {!store}, for callers with no use for the answer. *)

val fold_fresh : t -> now:float -> init:'a -> f:('a -> string -> float -> 'a) -> 'a
(** Fold over fresh entries as [(key, expiry)]; drives the node's
    periodic soft-state re-announcement to the overlay. *)

val remove : t -> key:string -> unit
(** Drop the entry, if any; the size gauges follow at once. *)

val hits : t -> int
