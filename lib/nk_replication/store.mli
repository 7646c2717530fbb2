(** Per-site partitioned local storage for hard state (§3.3).

    "Na Kika partitions hard state amongst sites and enforces resource
    constraints on persistent storage" — each site owns a keyspace with
    a byte quota; writes that would exceed it are refused. *)

type t

val create : unit -> t
(** Each site's quota is 16 MiB. *)

val get : t -> site:string -> key:string -> string option

val put : t -> site:string -> key:string -> string -> bool
(** False (and no change) when the write would push the site over
    quota. Overwrites account only the size delta. *)

val keys : t -> site:string -> prefix:string -> string list
(** Sorted. *)
