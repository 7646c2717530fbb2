(* Figure 7 + the §5.2 local experiments: the SIMMs under the
   single-server and Na Kika configurations.

   Wide area (Figure 7): 12 load-generating client sites across the US
   East Coast, West Coast and Asia; the origin is a PlanetLab-class
   machine in New York with a capped uplink. 120/180/240 clients replay
   the student access logs open-loop (the paper's 4x-accelerated
   replay), so an overloaded server falls behind rather than slowing
   the offered load. Reported: the latency CDF for HTML accesses, the
   fraction of video accesses achieving the 140 Kbps bitrate, and the
   video failure rate.

   Local (§5.2 first half): 160 clients on a LAN (closed loop — the
   stable regime), then with an emulated WAN between the server and
   everything else (80 ms delay, 8 Mbps shared uplink; open loop). *)

type deployment = Single_server | Nk_cold | Nk_warm

let deployment_name = function
  | Single_server -> "single server"
  | Nk_cold -> "Na Kika cold"
  | Nk_warm -> "Na Kika warm"

type region = { rname : string; latency : float }

let regions =
  [
    { rname = "east"; latency = 0.012 };
    { rname = "west"; latency = 0.040 };
    { rname = "asia"; latency = 0.095 };
  ]

(* A video "sees sufficient bandwidth" when it arrives at least as fast
   as its 140 Kbps playback rate; it fails outright past the timeout. *)
let video_deadline =
  float_of_int Core.Workload.Simm.video_bytes /. Core.Workload.Simm.video_bitrate

let video_timeout = 60.0

(* No misbehaving sites in these runs; resource controls stay out of
   the way, as in the paper's application experiments. *)
let nk_config =
  { Core.Node.Config.default with Core.Node.Config.enable_resource_controls = false }

type result = {
  html : Core.Util.Stats.t;
  video_ok : int ref;
  video_slow : int ref;
  video_failed : int ref;
}

let new_result () =
  { html = Core.Util.Stats.create (); video_ok = ref 0; video_slow = ref 0; video_failed = ref 0 }

let video_fraction r =
  let total = !(r.video_ok) + !(r.video_slow) + !(r.video_failed) in
  if total = 0 then 0.0 else 100.0 *. float_of_int !(r.video_ok) /. float_of_int total

let video_failure_rate r =
  let total = !(r.video_ok) + !(r.video_slow) + !(r.video_failed) in
  if total = 0 then 0.0 else 100.0 *. float_of_int !(r.video_failed) /. float_of_int total

let record_sample result req (resp : Core.Http.Message.response) elapsed =
  if Core.Workload.Simm.is_video req then begin
    if resp.Core.Http.Message.status <> 200 || elapsed > video_timeout then
      incr result.video_failed
    else if elapsed <= video_deadline then incr result.video_ok
    else incr result.video_slow
  end
  else if resp.Core.Http.Message.status = 200 then Core.Util.Stats.add result.html elapsed

(* Open-loop session: one simulated student issuing requests on a fixed
   schedule (the 4x-accelerated log replay). *)
let replay_session cluster ~client ~proxy ~rng ~mode ~student ~start ~duration ~rate ~on_response =
  let sim = Core.Node.Cluster.sim cluster in
  let interval = 1.0 /. rate in
  let n = int_of_float (duration /. interval) in
  for k = 0 to n - 1 do
    let jitter = Core.Util.Prng.float rng (interval /. 2.0) in
    Core.Sim.Sim.schedule_at sim
      (start +. (float_of_int k *. interval) +. jitter)
      (fun () ->
        let req = Core.Workload.Simm.make_request ~rng ~mode ~student in
        let t0 = Core.Sim.Sim.now sim in
        Core.Node.Cluster.fetch cluster ~client ?proxy req (fun resp ->
            on_response req resp (Core.Sim.Sim.now sim -. t0)))
  done

(* --- Figure 7: wide area ------------------------------------------------ *)

let wide_area_run ~deployment ~total_clients =
  let cluster = Core.Node.Cluster.create ~seed:23 () in
  let sim = Core.Node.Cluster.sim cluster in
  let net = Core.Node.Cluster.net cluster in
  let origin = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Simm.host () in
  Core.Workload.Simm.install_origin origin;
  let origin_host = Core.Node.Origin.host origin in
  (* PlanetLab limits each node's bandwidth; the origin's uplink is the
     single-server bottleneck. *)
  Core.Sim.Net.set_egress_limit net origin_host 1_500_000.0;
  let use_edge = deployment <> Single_server in
  let mode = if use_edge then Core.Workload.Simm.Edge else Core.Workload.Simm.Single_server in
  let machines =
    List.concat_map
      (fun region ->
        List.init 4 (fun i ->
            let client =
              Core.Node.Cluster.add_client cluster
                ~name:(Printf.sprintf "%s-lg%d" region.rname i)
            in
            Core.Node.Cluster.connect cluster client origin_host ~latency:region.latency
              ~bandwidth:5_000_000.0;
            let proxy =
              if use_edge then begin
                let p =
                  Core.Node.Cluster.add_proxy cluster
                    ~name:(Printf.sprintf "nk-%s%d.nakika.net" region.rname i)
                    ~config:nk_config ()
                in
                Core.Sim.Net.set_egress_limit net (Core.Node.Node.host p) 700_000.0;
                Core.Node.Cluster.connect cluster client (Core.Node.Node.host p)
                  ~latency:0.004 ~bandwidth:10_000_000.0;
                Core.Node.Cluster.connect cluster (Core.Node.Node.host p) origin_host
                  ~latency:region.latency ~bandwidth:5_000_000.0;
                Some p
              end
              else None
            in
            (client, proxy)))
      regions
  in
  let per_machine = total_clients / List.length machines in
  let result = new_result () in
  let run_phase ~live ~duration =
    let start = Core.Sim.Sim.now sim in
    List.iteri
      (fun mi (client, proxy) ->
        for s = 0 to per_machine - 1 do
          let rng = Core.Util.Prng.create ((mi * 100) + s) in
          replay_session cluster ~client ~proxy ~rng ~mode
            ~student:(Printf.sprintf "stu%d-%d" mi s)
            ~start ~duration ~rate:0.3
            ~on_response:(fun req resp elapsed ->
              if live then record_sample result req resp elapsed)
        done)
      machines;
    Core.Node.Cluster.run cluster
  in
  (match deployment with
   | Nk_warm ->
     run_phase ~live:false ~duration:60.0;
     run_phase ~live:true ~duration:60.0
   | Single_server | Nk_cold -> run_phase ~live:true ~duration:60.0);
  result

let print_cdf label (stats : Core.Util.Stats.t) =
  let points = Core.Util.Stats.cdf stats ~points:10 in
  Printf.printf "  %-16s" label;
  List.iter (fun (v, f) -> Printf.printf " %3.0f%%:%6.1fs" (100.0 *. f) v) points;
  print_newline ()

let figure7 () =
  Harness.header "Figure 7: SIMMs wide-area latency CDF (HTML accesses)";
  print_endline
    "  12 client machines (East Coast / West Coast / Asia), origin in New York,";
  print_endline "  4x-accelerated open-loop log replay; columns are cumulative fractions.";
  List.iter
    (fun total_clients ->
      Printf.printf "\n  -- %d clients --\n" total_clients;
      List.iter
        (fun deployment ->
          let r = wide_area_run ~deployment ~total_clients in
          print_cdf (deployment_name deployment) r.html;
          Printf.printf "  %-16s p90 %.1f s   video>=140Kbps %.1f%%   video failures %.1f%%\n"
            "" (Core.Util.Stats.percentile r.html 90.0) (video_fraction r) (video_failure_rate r))
        [ Single_server; Nk_cold; Nk_warm ])
    [ 120; 180; 240 ];
  print_endline "";
  print_endline "  paper @240 clients: p90 60.1s (server) / 31.6s (cold) / 9.7s (warm);";
  print_endline "  video ok 0% / 11.5% / 80.3%; failures 60.0% / 5.6% / 1.9%";
  print_endline "  shape check: single server >> NK cold > NK warm; video ordering reversed"

(* --- §5.2 local experiments ------------------------------------------- *)

let local_lan_run ~use_edge ~clients:total =
  let cluster = Core.Node.Cluster.create ~seed:29 () in
  let sim = Core.Node.Cluster.sim cluster in
  let origin = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Simm.host () in
  Core.Workload.Simm.install_origin origin;
  let mode = if use_edge then Core.Workload.Simm.Edge else Core.Workload.Simm.Single_server in
  let proxy =
    if use_edge then
      Some (Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config:nk_config ())
    else None
  in
  let machines =
    List.init 4 (fun i -> Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "lg%d" i))
  in
  let result = new_result () in
  let until = Core.Sim.Sim.now sim +. 60.0 in
  List.iteri
    (fun mi machine ->
      for s = 0 to (total / 4) - 1 do
        let rng = Core.Util.Prng.create ((mi * 1000) + s) in
        let student = Printf.sprintf "s%d-%d" mi s in
        Core.Workload.Driver.closed_loop cluster ~client:machine ?proxy ~think:0.5 ~until
          ~make_request:(fun _ -> Core.Workload.Simm.make_request ~rng ~mode ~student)
          ~on_response:(fun _ req resp elapsed -> record_sample result req resp elapsed)
          ()
      done)
    machines;
  Core.Node.Cluster.run cluster;
  result

let local_wan_run ~use_edge ~clients:total =
  let cluster = Core.Node.Cluster.create ~seed:29 () in
  let sim = Core.Node.Cluster.sim cluster in
  let net = Core.Node.Cluster.net cluster in
  let origin = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Simm.host () in
  Core.Workload.Simm.install_origin origin;
  let origin_host = Core.Node.Origin.host origin in
  (* 80 ms delay and an 8 Mbps shared uplink at the server (§5.2). *)
  Core.Sim.Net.set_egress_limit net origin_host 1_000_000.0;
  let mode = if use_edge then Core.Workload.Simm.Edge else Core.Workload.Simm.Single_server in
  let proxy =
    if use_edge then begin
      let p = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config:nk_config () in
      Core.Node.Cluster.connect cluster (Core.Node.Node.host p) origin_host ~latency:0.08
        ~bandwidth:10_000_000.0;
      Some p
    end
    else None
  in
  let machines =
    List.init 4 (fun i ->
        let m = Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "lg%d" i) in
        Core.Node.Cluster.connect cluster m origin_host ~latency:0.08 ~bandwidth:10_000_000.0;
        m)
  in
  let result = new_result () in
  let start = Core.Sim.Sim.now sim in
  List.iteri
    (fun mi machine ->
      for s = 0 to (total / 4) - 1 do
        let rng = Core.Util.Prng.create ((mi * 1000) + s) in
        replay_session cluster ~client:machine ~proxy ~rng ~mode
          ~student:(Printf.sprintf "s%d-%d" mi s)
          ~start ~duration:60.0 ~rate:0.13
          ~on_response:(fun req resp elapsed -> record_sample result req resp elapsed)
      done)
    machines;
  Core.Node.Cluster.run cluster;
  result

let simm_local () =
  Harness.header "SIMMs local experiments (§5.2): 160 clients";
  let report label paper_p90 r =
    Printf.printf "  %-40s paper p90 %8s   measured p90 %6.0f ms   video ok %5.1f%%\n" label
      paper_p90
      (1000.0 *. Core.Util.Stats.percentile r.html 90.0)
      (video_fraction r)
  in
  Harness.section "switched LAN (closed loop)";
  report "single server" "904 ms" (local_lan_run ~use_edge:false ~clients:160);
  report "Na Kika proxy" "964 ms" (local_lan_run ~use_edge:true ~clients:160);
  Harness.section "emulated WAN to the server (80 ms, 8 Mbps; open loop)";
  report "single server" "8.88 s" (local_wan_run ~use_edge:false ~clients:160);
  report "Na Kika proxy" "1.21 s" (local_wan_run ~use_edge:true ~clients:160);
  print_endline
    "  shape check: on the LAN the single server edges out the proxy; across the WAN\n\
    \  the proxy wins decisively and video bandwidth collapses for the single server"
