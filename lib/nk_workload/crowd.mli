(** The Zipf crowd, written once: an open-loop stream at a fixed rate
    whose URLs follow a Zipf(0.9) law over the pages of one origin,
    [www.crowd.example]. The capacity curve, the tail experiment and
    the determinism soak run it; each request goes out through a
    {!Driver.recorder}.

    The stream has its own PRNG (seed 9001), so every arm of an
    experiment sees the same crowd. Request [i] arrives at
    [Sim.epoch + 5 s + i / rate]. All arrivals are scheduled with
    {!Nk_sim.Sim.schedule_at} before the run, in index order, and each
    draws its rank and then, in a fleet, its client: another schedule
    or draw order gives another run (DESIGN §27). *)

val url : int -> string
(** [http://www.crowd.example/zipf/<rank>.html]. *)

val publish : Nk_node.Cluster.t -> universe:int -> unit
(** Add the origin, serving ranks [0 .. universe-1] with max-age 600. *)

type fleet = {
  cluster : Nk_node.Cluster.t;
  proxies : Nk_node.Node.t list;
  clients : Nk_sim.Net.host array;  (** Client [i] sits next to proxy [i]. *)
}

val fleet : nodes:int -> universe:int -> hotspots:bool -> fleet
(** An open edge network: a cluster (seed 4242, 5 ms and 12.5 MB/s
    links by default), the published origin, [nodes] proxies
    [edge-%04d.nakika.net] without pipeline, tracing, resource controls
    or lint, and one client 0.5 ms from each proxy, so the redirector
    keeps it there. [hotspots] turns on hotspot replication (threshold
    5, 4 replicas, 60 s TTL, 5 s half-life). *)

type target =
  | Fleet of Nk_sim.Net.host array
      (** Each request from a uniformly drawn client, via the proxy the
          redirector picks. *)
  | Via of Nk_sim.Net.host * Nk_node.Node.t  (** Every request from the client via the proxy. *)

val run :
  Nk_node.Cluster.t ->
  universe:int ->
  requests:int ->
  rate:float ->
  slack:float ->
  target ->
  int * Driver.answer list
(** Schedule the stream (10 s client timeout) and run the simulation
    to [slack] seconds past [Sim.epoch + 5 s + requests / rate].
    Returns the number issued and every answer, in answer order. *)
