(** Load generators.

    [closed_loop] models the paper's load-generating clients: each
    issues a request, waits for the response, optionally thinks, and
    repeats until the deadline ("accessing the same page in a tight
    loop", §5.1). [replay] issues a request schedule open-loop, used
    for the accelerated SIMM access-log replay (§5.2). *)

val closed_loop :
  Nk_node.Cluster.t ->
  client:Nk_sim.Net.host ->
  ?proxy:Nk_node.Node.t ->
  ?think:float ->
  until:float ->
  make_request:(int -> Nk_http.Message.request) ->
  on_response:(int -> Nk_http.Message.request -> Nk_http.Message.response -> float -> unit) ->
  unit ->
  unit
(** [make_request i] builds the [i]-th request (0-based);
    [on_response i req resp elapsed] sees the client-perceived latency
    in simulated seconds. *)

val replay :
  Nk_node.Cluster.t ->
  client:Nk_sim.Net.host ->
  proxy:Nk_node.Node.t ->
  events:(float * Nk_http.Message.request) list ->
  on_response:(Nk_http.Message.request -> Nk_http.Message.response -> float -> unit) ->
  unit ->
  unit
(** Each event fires at its offset from now, without waiting for
    earlier responses. *)
