(** Load generators.

    [closed_loop] models the paper's load-generating clients: each
    issues a request, waits for the response, optionally thinks, and
    repeats until the deadline ("accessing the same page in a tight
    loop", §5.1). The {!recorder} is the one open-loop path: the
    access-log replay (§5.2), the Zipf crowd ({!Crowd}), the fault
    scenarios ({!Chaos}) and the diffusion flash crowd schedule their
    requests and {!send} each through it; callers compute their counts
    and percentiles from the answers {!finish} returns. *)

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

type answer = {
  index : int;  (** Issue order, from 0. *)
  url : string;
  sent : float;  (** Simulated time the client sent it. *)
  received : float;  (** Simulated time the answer reached the client. *)
  response : Nk_http.Message.response;
}

type recorder
(** The requests sent on one cluster and the answers they got. *)

val recorder : Nk_node.Cluster.t -> recorder

val send :
  recorder ->
  client:Nk_sim.Net.host ->
  proxy:Nk_node.Node.t option ->
  timeout:float ->
  Nk_http.Message.request ->
  unit
(** Issue the request now, through the proxy or, given [None], the
    one the redirector picks, and record its answer. The client
    timeout synthesises an answer when nothing comes back, so every
    sent request is answered exactly once. *)

val issued : recorder -> int
(** Requests sent so far. *)

val finish : recorder -> until:float -> answer list
(** Run the simulation to [until]; every answer so far, in answer
    order. *)
