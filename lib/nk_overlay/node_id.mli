(** Identifiers on the overlay's circular key space.

    Both node names and content URLs hash onto the same ring (the top
    62 bits of their SHA-256 digest), as in consistent-hashing DHTs. *)

type t = private int
(** A ring position [p] with [0 <= p < 2^62]: [(id :> int)] is never
    negative, and the clockwise distance from [a] to [b] is
    [((b :> int) - (a :> int)) land max_int]. The representation is
    public so that {!Ring} compares and stores ids as plain ints: the
    library is compiled without cross-module inlining in dune's dev
    profile, and an abstract element type makes every array read a
    generic one. *)

val of_string : string -> t
(** Hash arbitrary bytes (a node name or a URL) onto the ring. *)

val of_int : int -> t
(** A raw ring position: the int modulo 2^62. Raises
    [Invalid_argument] on a negative int. *)

val equal : t -> t -> bool
