(** URLs and the rewriting rules Na Kika applies to them.

    The paper's deployment appends ".nakika.net" to a URL's hostname so
    the system's name servers can redirect clients to edge nodes (§3);
    [to_nakika] / [of_nakika] implement that rewriting. *)

type t = {
  scheme : string; (** "http" unless stated otherwise *)
  host : string; (** lowercase *)
  port : int; (** 80 when absent *)
  path : string; (** always starts with '/' *)
  query : (string * string) list; (** decoded key/value pairs, in order *)
}

val make : ?scheme:string -> ?port:int -> ?query:(string * string) list -> host:string -> path:string -> unit -> t

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

val matches_prefix : t -> string -> bool
(** Predicate-list URL matching (§3.1): the pattern "host/pathprefix"
    (no scheme) matches when the URL's host equals the pattern host, or
    is a subdomain of it, and the URL path extends the pattern path. *)

val nakika_suffix : string
(** ".nakika.net" *)

val to_nakika : t -> t
(** Append the Na Kika suffix to the hostname (idempotent). *)

val of_nakika : t -> t option
(** Strip the suffix, returning the origin URL; [None] when the host is
    not a Na Kika name. *)

val is_nakika : t -> bool

val equal : t -> t -> bool
