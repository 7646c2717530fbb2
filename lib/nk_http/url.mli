(** URLs and the rewriting rules Na Kika applies to them.

    The paper's deployment appends ".nakika.net" to a URL's hostname so
    the system's name servers can redirect clients to edge nodes (§3);
    [of_nakika] undoes that rewriting. *)

type t = {
  scheme : string; (** "http" unless stated otherwise *)
  host : string; (** lowercase *)
  port : int; (** 80 when absent *)
  path : string; (** always starts with '/' *)
  query : (string * string) list; (** decoded key/value pairs, in order *)
}

val parse : string -> (t, string) result
(** Accepts absolute ("http://host:port/path?k=v") and scheme-less
    ("host/path") forms. *)

val parse_exn : string -> t
(** Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

val length : t -> int
(** [String.length (to_string t)], computed from the fields without
    building the string. *)

val query_get : t -> string -> string option

val site : t -> string
(** The site identifier used for per-site accounting and the
    [nakika.js] lookup: "host" or "host:port" for non-default ports. *)

val of_nakika : t -> t option
(** Strip the suffix, returning the origin URL; [None] when the host is
    not a Na Kika name. *)
