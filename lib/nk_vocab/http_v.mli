(** The [Request] and [Response] globals (§3.1).

    Like ASP.NET/JSP, messages are not passed as arguments but exposed
    as global script objects. [Request.terminate(status)] (Fig. 5) and
    [Request.respond(...)] abort request processing with a response —
    they raise [Terminate_request], which the pipeline catches. *)

exception Terminate_request of Nk_http.Message.response

val install_request : Nk_script.Interp.ctx -> Nk_http.Message.request -> unit
(** Define the [Request] global. Mutators ([setUrl], [setHeader],
    [setMethod]) write through to the underlying message. *)

type response_sink
(** Script writes to the response body, kept as written. *)

val install_response : Nk_script.Interp.ctx -> Nk_http.Message.response -> response_sink
(** Define the [Response] global: [read()] returns the whole body once,
    then [null] until [rewind()], and [write(data)] collects replacement
    content. *)

val apply_writes : response_sink -> Nk_http.Message.response -> unit
(** After the handler returns: when the script wrote anything, replace
    the body with the written bytes (Content-Length is updated; the
    script's Content-Type header is respected). A single written string
    becomes the body as is; several are joined once. *)

val response_to_value : Nk_http.Message.response -> Nk_script.Value.t
(** [{status, contentType, body}] — the shape [fetchResource] and
    [Cache.lookup] return. *)
