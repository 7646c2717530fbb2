(** Identifiers on the overlay's circular key space.

    Both node names and content URLs hash onto the same 63-bit ring
    (the top bits of their SHA-256 digest), as in consistent-hashing
    DHTs. *)

type t

val of_string : string -> t
(** Hash arbitrary bytes (a node name or a URL) onto the ring. *)

val of_int : int -> t
(** For tests: a raw ring position (non-negative). *)

val to_int : t -> int

val compare : t -> t -> int

val equal : t -> t -> bool

val distance : t -> t -> int
(** Clockwise distance from the first id to the second. *)

val add_pow2 : t -> int -> t
(** [add_pow2 id i] is [id + 2^i] on the ring — finger-table targets. *)
