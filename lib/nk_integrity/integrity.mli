(** Static content integrity (§6).

    Two response headers protect original content cached inside the
    network: [X-Content-SHA256] carries the content hash (integrity,
    precomputable) and [X-Signature] a signature over the hash *and*
    the cache-control headers (freshness). Expiration must be absolute
    — untrusted nodes cannot be trusted to decrement relative ages — so
    signing requires an [Expires] header and refuses [max-age]. The
    signature is HMAC under a publisher key held by the trusted
    registry. *)

type violation = Missing_headers | Relative_expiry | Hash_mismatch | Bad_signature | Stale

val violation_to_string : violation -> string

val sign : key:string -> Nk_http.Message.response -> (unit, violation) result
(** Set both headers. Fails with [Relative_expiry] when the response
    carries Cache-Control max-age/s-maxage or lacks an absolute
    [Expires]. *)

val verify : key:string -> now:float -> Nk_http.Message.response -> (unit, violation) result
(** Check hash, signature, and freshness against the (simulated)
    clock. *)
