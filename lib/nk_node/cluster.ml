type t = {
  sim : Nk_sim.Sim.t;
  net : Nk_sim.Net.t;
  web : Nk_sim.Httpd.t;
  dht : Nk_overlay.Dht.t;
  bus : Nk_replication.Message_bus.t;
  redirector : Nk_overlay.Redirector.t;
  nakika_origin : Origin.t;
  rng : Nk_util.Prng.t;
  (* The proxies by host name: [pick_proxy] resolves the redirector's
     choice per request, and a linear scan over 1000 proxies per
     request dominated planet-scale runs. *)
  by_name : (string, Node.t) Hashtbl.t;
  mutable hotspots : bool; (* a hotspot-enabled proxy configured [dht] *)
  mutable sweeping : bool; (* [dht]'s one sweeper is running *)
}

let sim t = t.sim
let net t = t.net
let dht t = t.dht
let bus t = t.bus
let redirector t = t.redirector
let nakika_origin t = t.nakika_origin

let create ?(seed = 11) ?default_latency ?default_bandwidth ?client_wall ?server_wall
    ?faults () =
  let sim = Nk_sim.Sim.create () in
  let net = Nk_sim.Net.create sim ?default_latency ?default_bandwidth () in
  (match faults with
   | None -> ()
   | Some plan -> Nk_sim.Net.set_faults net plan);
  let web = Nk_sim.Httpd.create net in
  let dht = Nk_overlay.Dht.create () in
  (* DHT reads skip replicas the fault plan has crashed. *)
  (match faults with
   | None -> ()
   | Some plan ->
     Nk_overlay.Dht.set_liveness dht (fun name ->
         not (Nk_faults.Plan.is_down plan ~now:(Nk_sim.Sim.now sim) name)));
  let bus = Nk_replication.Message_bus.create ~seed:(seed * 17) net in
  let redirector = Nk_overlay.Redirector.create net in
  let wall_host = Nk_sim.Net.add_host net ~name:"nakika.net" () in
  let nakika_origin = Origin.create ~web ~host:wall_host () in
  let client_wall = Option.value client_wall ~default:Nk_pipeline.Walls.default_client_wall in
  let server_wall = Option.value server_wall ~default:Nk_pipeline.Walls.default_server_wall in
  Origin.set_static nakika_origin ~path:"/clientwall.js" ~content_type:"text/javascript"
    ~max_age:300 client_wall;
  Origin.set_static nakika_origin ~path:"/serverwall.js" ~content_type:"text/javascript"
    ~max_age:300 server_wall;
  Origin.set_static nakika_origin ~path:"/nkp.js" ~content_type:"text/javascript" ~max_age:300
    Nk_pipeline.Nkp.script;
  Origin.set_static nakika_origin ~path:"/esi.js" ~content_type:"text/javascript" ~max_age:300
    Nk_pipeline.Esi.script;
  {
    sim;
    net;
    web;
    dht;
    bus;
    redirector;
    nakika_origin;
    rng = Nk_util.Prng.create (seed * 31);
    by_name = Hashtbl.create 64;
    hotspots = false;
    sweeping = false;
  }

let add_proxy t ~name ?(cpu_speed = 1.0) ?config () =
  let host = Nk_sim.Net.add_host t.net ~name ~cpu_speed () in
  let node =
    Node.create ~web:t.web ~host ~redirector:t.redirector ~dht:t.dht ~bus:t.bus ?config ()
  in
  (* Diffusion deployments also bound how long the redirector trusts a
     load report: a silent node must stop attracting clients just as it
     stops attracting offloads. Gated on the policy so a diffusion-free
     cluster keeps its exact pre-diffusion redirect behavior. *)
  let cfg = Node.config node in
  (match cfg.Config.diffusion with
   | Some d -> Nk_overlay.Redirector.set_staleness t.redirector d.Nk_diffusion.Policy.staleness
   | None -> ());
  (* Same pattern for hotspot replication: the first hotspot-enabled
     proxy configures the cluster's shared DHT index. Gated on its
     flag so hotspot-free clusters keep their exact prior behavior. *)
  if cfg.Config.enable_hotspots && not t.hotspots then begin
    t.hotspots <- true;
    Nk_overlay.Dht.set_hotspots t.dht ~halflife:cfg.Config.hotspot_halflife
      ~threshold:cfg.Config.hotspot_threshold ~replicas:cfg.Config.hotspot_replicas
      ~ttl:cfg.Config.hotspot_ttl ()
  end;
  (* The first proxy that also joined the DHT starts its one sweeper.
     An expired sloppy placement otherwise dies only on the next lookup
     of its key; sweeping every half placement TTL makes reconvergence
     a property of the clock, not of lookup luck. *)
  if cfg.Config.enable_hotspots && cfg.Config.enable_dht && not t.sweeping then begin
    t.sweeping <- true;
    Nk_sim.Sim.every t.sim ~period:(Float.max 1.0 (cfg.Config.hotspot_ttl /. 2.0)) (fun () ->
        Nk_overlay.Dht.sweep t.dht ~now:(Nk_sim.Sim.now t.sim))
  end;
  Nk_overlay.Redirector.add_proxy t.redirector host;
  Hashtbl.replace t.by_name name node;
  node

let add_origin t ~name ?(cpu_speed = 1.0) ?sign_key () =
  let host = Nk_sim.Net.add_host t.net ~name ~cpu_speed () in
  Origin.create ~web:t.web ~host ?sign_key ()

let add_client t ~name = Nk_sim.Net.add_host t.net ~name ()

let connect t a b ~latency ~bandwidth = Nk_sim.Net.connect t.net a b ~latency ~bandwidth

let pick_proxy t ~client =
  match Nk_overlay.Redirector.pick t.redirector ~spread:2 ~rng:t.rng ~client () with
  | None -> None
  | Some host -> Hashtbl.find_opt t.by_name (Nk_sim.Net.host_name host)

let fetch t ~client ?proxy ?timeout req k =
  let proxy = match proxy with Some p -> Some p | None -> pick_proxy t ~client in
  let k =
    match timeout with
    | None -> k
    | Some timeout ->
      (* Client-side deadline: under fault injection the request or its
         response may be dropped outright, and the client must still
         get an explicit failure (no hung requests). A cancellable
         timer that an answer takes out of the queue, and a latch for
         the answer that arrives after the timer fired: the first
         outcome takes the callback out of [pending]. *)
      let pending = ref (Some k) in
      let timer =
        Nk_sim.Sim.timer t.sim ~delay:timeout (fun () ->
            match !pending with
            | None -> ()
            | Some k ->
              pending := None;
              (* Machine-readable like the admission/quarantine 503s:
                 the reason header distinguishes "the client gave up"
                 from an origin 504, and Retry-After says when trying
                 again might actually fit in the same patience. *)
              k
                (Nk_resource.Deadline.expired_response ~retry_after:timeout
                   ~reason:"client-timeout" ()))
      in
      fun resp ->
        match !pending with
        | None -> ()
        | Some k ->
          pending := None;
          Nk_sim.Sim.cancel t.sim timer;
          k resp
  in
  match proxy with
  | Some node -> Nk_sim.Httpd.fetch_via t.web ~from:client ~via:(Node.host node) req k
  | None -> Nk_sim.Httpd.fetch t.web ~from:client req k

let run t = Nk_sim.Sim.run t.sim
