(** HTTP byte ranges (RFC 2616 §14.35, single-range subset).

    §3.1: "the body always represents the entire instance of the HTTP
    resource, so that the resource can be correctly transcoded"; a Na
    Kika node therefore processes the full instance through the
    pipeline and slices the requested range out only when responding to
    the client. *)

type t = {
  first : int option; (** [bytes=first-...] *)
  last : int option; (** [bytes=...-last] (inclusive) or a suffix length *)
}

val parse : string -> t option
(** ["bytes=0-499"], ["bytes=500-"], ["bytes=-200"] (final 200 bytes).
    Multi-range requests are not supported and parse to [None]. *)

val apply : t -> Message.response -> bool
(** Slice a 200 response in place into a 206 partial response (body,
    Content-Length, Content-Range). Returns false — leaving the
    response untouched — when it is not a 200 or the range is
    unsatisfiable. *)
