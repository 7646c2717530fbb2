(** Message bodies.

    A body is one immutable string: the entire HTTP instance the
    platform views (§3.1) and the one piece a script's
    [Response.read()] returns. *)

type t

val of_string : string -> t

val to_string : t -> string
(** The body itself, not a copy. *)

val length : t -> int
