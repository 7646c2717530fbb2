(** HTTP status codes and reason phrases. *)

type t = int

val reason : t -> string
(** RFC 2616 reason phrase, or ["Unknown"] for unassigned codes. *)

val is_success : t -> bool

val ok : t
