(** HMAC-SHA256 (RFC 2104).

    Models the [X-Signature] freshness signature of §6: the trusted
    registry holds the key, so a valid MAC plays the role of the
    publisher's signature over content hash + cache-control headers. *)

val mac_hex : key:string -> string -> string
