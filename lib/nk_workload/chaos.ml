module Plan = Nk_faults.Plan
module Cluster = Nk_node.Cluster
module Origin = Nk_node.Origin
module Sim = Nk_sim.Sim
module Metrics = Nk_telemetry.Metrics

type run = {
  cluster : Cluster.t;
  proxies : Nk_node.Node.t list;
  origins : Origin.t list;
  issued : int;
  answers : Driver.answer list;
}

let epoch = Sim.epoch

let chaos_proxies =
  [ "nk-a.nakika.net"; "nk-b.nakika.net"; "nk-c.nakika.net"; "nk-d.nakika.net" ]

let random_plan seed = Plan.random ~seed ~hosts:chaos_proxies ~start:epoch

let chaos_baseline () = Plan.create ~seed:3 ()

let chaos_degraded () =
  let plan = Plan.create ~seed:3 () in
  Plan.drop_link plan ~probability:0.10 ();
  Plan.partition plan
    ~a:[ "nk-a.nakika.net"; "nk-b.nakika.net" ]
    ~b:[ "nk-c.nakika.net"; "nk-d.nakika.net" ]
    ~at:(epoch +. 10.0) ~heal:(epoch +. 25.0);
  plan

let overload_baseline () = Plan.create ~seed:5 ()

let overload_degraded () =
  let plan = Plan.create ~seed:5 () in
  Plan.crash plan ~host:"nk-b.nakika.net" ~at:(epoch +. 5.6) ~restart:(epoch +. 21.0) ();
  Plan.fail_origin plan ~host:"dead.example.org" ~at:(epoch +. 4.0) ~until:(epoch +. 90.0);
  plan

(* The cluster with its origins, proxies and clients, plus [send],
   which issues one request through the run's recorder, [issued], the
   number sent so far, and [finish], which runs the simulation to
   [until] and collects the run. Clients join last first (c2 before
   c1); that order fixes every host's id. *)
let start ~seed plan ~origins ~proxies ~clients =
  let cluster = Cluster.create ~seed ~faults:plan () in
  let origins =
    List.map
      (fun (name, pages) ->
        let origin = Cluster.add_origin cluster ~name () in
        List.iter
          (fun (path, max_age, body) -> Origin.set_static origin ~path ~max_age body)
          pages;
        origin)
      origins
  in
  let proxies = List.map (fun name -> Cluster.add_proxy cluster ~name ()) proxies in
  let clients =
    Array.of_list
      (List.rev_map (fun name -> Cluster.add_client cluster ~name) (List.rev clients))
  in
  let recorder = Driver.recorder cluster in
  let send ?proxy ~client ~timeout url =
    Driver.send recorder ~client:clients.(client) ~proxy ~timeout (Nk_http.Message.request url)
  in
  let issued () = Driver.issued recorder in
  let finish ~until =
    let answers = Driver.finish recorder ~until in
    { cluster; proxies; origins; issued = issued (); answers }
  in
  (Cluster.sim cluster, Array.of_list proxies, send, issued, finish)

let run_chaos ~seed plan =
  let sim, proxies, send, _, finish =
    start ~seed plan
      ~origins:
        [
          ( "www.example.edu",
            [ ("/index.html", 60, "<html>chaos</html>"); ("/other.html", 60, "<html>other</html>") ]
          );
        ]
      ~proxies:chaos_proxies ~clients:[ "c1"; "c2" ]
  in
  for i = 0 to 29 do
    Sim.schedule_at sim
      (epoch +. 1.0 +. (2.0 *. float_of_int i))
      (fun () ->
        let path = if i mod 3 = 0 then "/other.html" else "/index.html" in
        send ~client:(i mod 2) ~proxy:proxies.(i mod 4) ~timeout:15.0
          ("http://www.example.edu" ^ path))
  done;
  (* Past the last client timeout (+59 s + 15 s), with slack for the
     retry and anti-entropy daemons. *)
  finish ~until:(epoch +. 120.0)

let run_overload ~seed plan =
  let sim, _, send, issued, finish =
    start ~seed plan
      ~origins:
        [
          ("www.example.edu", [ ("/hot.html", 60, "<html>flash crowd</html>") ]);
          ("dead.example.org", [ ("/item.html", 2, "<html>fragile</html>") ]);
        ]
      ~proxies:[ "nk-a.nakika.net"; "nk-b.nakika.net"; "nk-c.nakika.net" ]
      ~clients:[ "c1"; "c2"; "c3" ]
  in
  (* Request n (in issue order, from 0) comes from client (n + 1) mod 3;
     the redirector picks its proxy. *)
  let fetch_at at url =
    Sim.schedule_at sim at (fun () -> send ~client:((issued () + 1) mod 3) ~timeout:10.0 url)
  in
  for i = 0 to 599 do
    fetch_at (epoch +. 5.0 +. (0.002 *. float_of_int i)) "http://www.example.edu/hot.html"
  done;
  for i = 0 to 29 do
    fetch_at (epoch +. 1.0 +. float_of_int i) "http://dead.example.org/item.html"
  done;
  (* Past the last client timeout (+30 s + 10 s), with slack for the
     restarted node's daemons. *)
  finish ~until:(epoch +. 90.0)

let merge_fault_telemetry ~into run =
  Metrics.merge ~into (Nk_sim.Net.metrics (Cluster.net run.cluster));
  Metrics.merge ~into (Nk_replication.Message_bus.metrics (Cluster.bus run.cluster));
  Metrics.merge ~into (Nk_overlay.Dht.metrics (Cluster.dht run.cluster))
