(** Cache-Control directive parsing and expiry computation.

    Implements the expiration-based consistency model Na Kika inherits
    from HTTP (§3.3): max-age / s-maxage, no-cache, no-store, private,
    plus the Expires fallback. *)

type t = {
  max_age : int option;
  s_maxage : int option;
  no_cache : bool;
  no_store : bool;
  private_ : bool;
  public : bool;
  must_revalidate : bool;
}

val empty : t

val parse : string -> t
(** Parse a Cache-Control header value; unknown directives are ignored. *)

val expiry :
  now:float ->
  date:(unit -> float option) ->
  cache_control:t ->
  expires:(unit -> float option) ->
  float option
(** Absolute expiry time for a response received at [now]:
    s-maxage wins over max-age wins over Expires. [None] means the
    response carries no freshness lifetime (treated as immediately
    stale), or is not cacheable: no-store, private and no-cache (a
    shared proxy cache may not reuse such responses without
    revalidation, which we fold into non-cacheability). [expires] is
    called only when [cache_control] allows caching and gives no
    max-age, and [date] only when [expires] gives a time. *)
