(** Message bodies as chunk sequences.

    Mirrors Apache's bucket brigades: a body is a sequence of byte
    chunks; scripts read it chunk by chunk ("the response body is
    accessed in chunks to enable cut-through routing", Fig. 2) while the
    platform can still view the entire instance (§3.1). *)

type t

val of_string : string -> t

val of_chunks : string list -> t

val to_string : t -> string
(** Concatenation of all chunks (the full HTTP instance). *)

val length : t -> int

val chunks : t -> string list

type reader
(** A cursor over the chunk sequence. *)

val reader : t -> reader

val read : reader -> string option
(** Next chunk, [None] at end of body. *)
