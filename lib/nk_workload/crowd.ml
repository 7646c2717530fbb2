module Cluster = Nk_node.Cluster
module Sim = Nk_sim.Sim

let url rank = Printf.sprintf "http://www.crowd.example/zipf/%d.html" rank

let publish cluster ~universe =
  let origin = Cluster.add_origin cluster ~name:"www.crowd.example" () in
  for r = 0 to universe - 1 do
    Nk_node.Origin.set_static origin
      ~path:(Printf.sprintf "/zipf/%d.html" r)
      ~max_age:600
      (Printf.sprintf "<html>zipf rank %d</html>" r)
  done

type fleet = {
  cluster : Cluster.t;
  proxies : Nk_node.Node.t list;
  clients : Nk_sim.Net.host array;
}

let fleet ~nodes ~universe ~hotspots =
  let cluster =
    Cluster.create ~seed:4242 ~default_latency:0.005 ~default_bandwidth:12_500_000.0 ()
  in
  publish cluster ~universe;
  let config =
    {
      Nk_node.Config.default with
      Nk_node.Config.enable_pipeline = false;
      enable_tracing = false;
      enable_resource_controls = false;
      lint_mode = `Off;
      enable_hotspots = hotspots;
      hotspot_threshold = 5.0;
      hotspot_replicas = 4;
      hotspot_ttl = 60.0;
      hotspot_halflife = 5.0;
    }
  in
  let proxies =
    List.init nodes (fun i ->
        Cluster.add_proxy cluster ~name:(Printf.sprintf "edge-%04d.nakika.net" i) ~config ())
  in
  (* A client lives next to its edge node: 0.5 ms against the 5 ms
     cross-traffic default, so the redirector's close-set pins it there. *)
  let client i proxy =
    let c = Cluster.add_client cluster ~name:(Printf.sprintf "client-%04d" i) in
    Cluster.connect cluster c (Nk_node.Node.host proxy) ~latency:0.0005 ~bandwidth:12_500_000.0;
    c
  in
  { cluster; proxies; clients = Array.of_list (List.mapi client proxies) }

type target = Fleet of Nk_sim.Net.host array | Via of Nk_sim.Net.host * Nk_node.Node.t

let run cluster ~universe ~requests ~rate ~slack target =
  let sim = Cluster.sim cluster in
  let recorder = Driver.recorder cluster in
  let zipf = Zipf.create ~s:0.9 ~universe in
  let wl = Nk_util.Prng.create 9001 in
  for i = 0 to requests - 1 do
    let rank = Zipf.sample zipf wl in
    let client, proxy =
      match target with
      | Fleet clients -> (clients.(Nk_util.Prng.int wl (Array.length clients)), None)
      | Via (client, proxy) -> (client, Some proxy)
    in
    Sim.schedule_at sim
      (Sim.epoch +. 5.0 +. (float_of_int i /. rate))
      (fun () ->
        Driver.send recorder ~client ~proxy ~timeout:10.0 (Nk_http.Message.request (url rank)))
  done;
  let answers =
    Driver.finish recorder ~until:(Sim.epoch +. 5.0 +. (float_of_int requests /. rate) +. slack)
  in
  (Driver.issued recorder, answers)
