(** IPv4 addresses, CIDR blocks, and the client matching used by policy
    predicates (lists of allowable values "support CIDR notation for IP
    addresses" and domain names, §3.1). *)

type t
(** An IPv4 address. *)

val of_string : string -> (t, string) result
(** Dotted quad, e.g. "192.168.0.1". *)

val of_string_exn : string -> t

val to_string : t -> string

val of_int32 : int32 -> t

type cidr
(** A CIDR block such as "10.0.0.0/8". *)

val cidr_of_string : string -> (cidr, string) result
(** A bare address parses as a /32 block. *)

val cidr_contains : cidr -> t -> bool

type client = { ip : t; hostname : string option }
(** What a predicate sees about a client: the address plus the reverse
    name when the deployment resolves one. *)
