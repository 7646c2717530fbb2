(** Cookie header parsing and Set-Cookie construction, as exposed to
    scripts through the cookie vocabulary (§3.1). *)

val parse : string -> (string * string) list
(** Parse a [Cookie:] request header ("k=v; k2=v2"). *)
