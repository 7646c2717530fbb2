(** HTTP requests and responses as mutated by pipeline stages.

    Event handlers modify messages in place — the paper represents both
    as global script objects (§3.1) — so the fields are mutable. *)

type request = {
  mutable meth : Method_.t;
  mutable url : Url.t;
  mutable headers : Headers.t;
  mutable body : Body.t;
  mutable client : Ip.client;
}

type response = {
  mutable status : Status.t;
  mutable resp_headers : Headers.t;
  mutable resp_body : Body.t;
}

val request :
  ?meth:Method_.t ->
  ?headers:(string * string) list ->
  ?body:string ->
  ?client:Ip.client ->
  string ->
  request
(** [request url] builds a GET request from an anonymous client
    (0.0.0.0). Raises [Invalid_argument] on a malformed URL. *)

val response :
  ?status:Status.t -> ?headers:(string * string) list -> ?body:string -> unit -> response

val error_response : Status.t -> response
(** Status line plus a small explanatory text/plain body. *)

val copy_request : request -> request
val copy_response : response -> response

(* Header conveniences. *)

val req_header : request -> string -> string option
val set_req_header : request -> string -> string -> unit
val resp_header : response -> string -> string option
val set_resp_header : response -> string -> string -> unit
val remove_resp_header : response -> string -> unit

val content_type : response -> string option
val content_length : response -> int
(** Physical body length (kept consistent by [set_body]). *)

val set_body : response -> string -> unit
(** Replace the body and update Content-Length. *)

(* Caching semantics. *)

val response_expiry : now:float -> response -> float option
(** Absolute freshness deadline per Cache-Control/Expires/Date; [None]
    when uncacheable or no lifetime given. *)

val cache_expiry : now:float -> request -> response -> float option
(** How long a shared cache may keep [resp] as its answer to [req]:
    [response_expiry] for a safe method and a 200 status, [None]
    otherwise. *)
