(* A miniature of the §5.2 evaluation: the SIMMs web-based medical
   education environment served (a) by a single origin server and
   (b) through Na Kika edge nodes, over a simulated wide-area network.

     dune exec examples/medical_education.exe

   Twelve client sites (US East Coast, West Coast, Asia) replay a
   student workload; the origin sits in New York. Edge proxies render
   the personalized XML to HTML close to the clients and serve the
   multimedia content from their caches. *)

let regions = [ ("east", 0.01); ("west", 0.04); ("asia", 0.09) ]

let run_deployment ~label ~use_edge =
  let cluster = Core.Node.Cluster.create ~seed:7 () in
  let sim = Core.Node.Cluster.sim cluster in
  let origin = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Simm.host () in
  Core.Workload.Simm.install_origin origin;
  let origin_host = Core.Node.Origin.host origin in

  let html_latency = Core.Util.Stats.create () in
  let video_bw = Core.Util.Stats.create () in

  let mode =
    if use_edge then Core.Workload.Simm.Edge else Core.Workload.Simm.Single_server
  in
  let make_clients region latency =
    List.init 4 (fun i ->
        let client =
          Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "%s-client%d" region i)
        in
        Core.Node.Cluster.connect cluster client origin_host ~latency ~bandwidth:1_000_000.0;
        let proxy =
          if use_edge then begin
            let p =
              Core.Node.Cluster.add_proxy cluster
                ~name:(Printf.sprintf "nk-%s%d.nakika.net" region i)
                ()
            in
            (* The proxy sits close to its clients but far from NY. *)
            Core.Node.Cluster.connect cluster client (Core.Node.Node.host p) ~latency:0.003
              ~bandwidth:10_000_000.0;
            Core.Node.Cluster.connect cluster (Core.Node.Node.host p) origin_host ~latency
              ~bandwidth:2_000_000.0;
            Some p
          end
          else None
        in
        (client, proxy))
  in
  let clients = List.concat_map (fun (region, lat) -> make_clients region lat) regions in

  let until = Core.Sim.Sim.now sim +. 120.0 in
  List.iteri
    (fun idx (client, proxy) ->
      let rng = Core.Util.Prng.create (100 + idx) in
      let student = Printf.sprintf "student%d" idx in
      let rec session () =
        if Core.Sim.Sim.now sim < until then begin
          let req = Core.Workload.Simm.make_request ~rng ~mode ~student in
          let started = Core.Sim.Sim.now sim in
          Core.Node.Cluster.fetch cluster ~client ?proxy req (fun resp ->
              let elapsed = Core.Sim.Sim.now sim -. started in
              let size = Core.Http.Message.content_length resp in
              if Core.Workload.Simm.is_video req then begin
                if elapsed > 0.0 then
                  Core.Util.Stats.add video_bw (float_of_int size /. elapsed)
              end
              else Core.Util.Stats.add html_latency elapsed;
              Core.Sim.Sim.schedule sim ~delay:0.5 session)
        end
      in
      session ())
    clients;
  Core.Node.Cluster.run cluster;

  Printf.printf "%-22s html p50 %6.0f ms   p90 %6.0f ms   video >= 140Kbps: %5.1f%%   origin reqs: %d\n"
    label
    (1000.0 *. Core.Util.Stats.percentile html_latency 50.0)
    (1000.0 *. Core.Util.Stats.percentile html_latency 90.0)
    (100.0 *. Core.Util.Stats.fraction_at_least video_bw Core.Workload.Simm.video_bitrate)
    (Core.Node.Origin.request_count origin)

let () =
  print_endline "SIMMs over a simulated wide area (12 clients, origin in New York):";
  run_deployment ~label:"single server:" ~use_edge:false;
  run_deployment ~label:"Na Kika edge nodes:" ~use_edge:true
