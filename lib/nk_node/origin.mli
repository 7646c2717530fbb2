(** A simulated origin web server.

    Serves a mix of static resources (with Cache-Control lifetimes) and
    dynamic handlers (which cost CPU per request, the way the SIMMs'
    Tomcat or the SPECweb PHP server does). Used both for content sites
    and for [nakika.net] itself, which hosts the administrative-control
    scripts at their well-known locations (§3.1). *)

type t

val create :
  web:Nk_sim.Httpd.t ->
  host:Nk_sim.Net.host ->
  ?sign_key:string ->
  unit ->
  t
(** Each static request costs 0.9 ms of origin CPU (an Apache request
    cycle on the reference machine). With [sign_key], cacheable static
    responses carry the §6 integrity headers (X-Content-SHA256 and
    X-Signature over an absolute Expires). *)

val host : t -> Nk_sim.Net.host

val set_static :
  t -> path:string -> ?content_type:string -> max_age:int -> string -> unit
(** Install or replace a static resource; [max_age] (seconds) controls
    proxy cacheability, [max_age = 0] makes it uncacheable. *)

val set_dynamic :
  t ->
  prefix:string ->
  cpu:float ->
  (Nk_http.Message.request -> Nk_http.Message.response) ->
  unit
(** Route requests whose path starts with [prefix] to a handler that
    costs [cpu] seconds of origin CPU per request. Longest prefix
    wins; static resources take precedence. *)

val request_count : t -> int

val bytes_served : t -> int
