(** Generic TTL'd memo cache.

    Backs the in-memory decision-tree cache of §4 ("decision trees are
    cached in a dedicated in-memory cache") and the negative cache for
    sites that publish no [nakika.js]. *)

type 'a t

val create : unit -> 'a t

val find : 'a t -> now:float -> string -> 'a option

val put : 'a t -> key:string -> expiry:float -> 'a -> unit

val remove : 'a t -> string -> unit

val fold : 'a t -> init:'b -> f:('b -> string -> 'a -> 'b) -> 'b
(** Every entry, expired ones included, in unspecified order. *)

val size : 'a t -> int
