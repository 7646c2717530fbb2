(* Proactive computation diffusion: the C3PO acceptance scenario. A
   single-site flash crowd is aimed at ONE proxy — no redirector help,
   every request lands on nk-a — so the only way to absorb it is to
   shed (the PR 5 baseline) or to move the work (diffusion). The same
   topology and workload run twice, diffusion off and on, and the
   report checks that the enabled run beats the redirect-only baseline
   on both goodput and p99, with offloads spread over at least two
   neighbors. BENCH_diffusion.json records both runs plus the diffusion
   counters (offloads by target, rejects, hash misses, fallbacks).

   CI reruns this under NAKIKA_CHAOS_SEED 1-3; the seed perturbs the
   cluster PRNG (offload target weighting, workload jitter), not the
   workload shape, which stays fixed so the two runs are comparable. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim
module Driver = Core.Workload.Driver

let hot_proxy = "nk-a.nakika.net"
let neighbor_names = [ "nk-b.nakika.net"; "nk-c.nakika.net" ]

(* The hot site publishes a script, so what diffuses is a real pipeline
   execution (fuel-metered), not a bare cache lookup — and the
   receivers exercise the hash-resolution path on their first offload. *)
let site_script =
  {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("origin", "edge"));
}
p.register();
|}

type outcome = {
  summary : Harness.summary;
  offload_spread : (string * int) list;  (** per-neighbor offload counts at nk-a *)
  rejects : int;
  fallbacks : int;
}

let goodput o = Harness.goodput o.summary

let run_scenario ~attach ~diffusion () =
  let config =
    if diffusion then
      {
        Core.Node.Config.default with
        Core.Node.Config.diffusion = Some Core.Diffusion.Policy.default;
      }
    else Core.Node.Config.default
  in
  let cluster = Core.Node.Cluster.create ~seed:(Harness.seed_base + 5) () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.example.edu" () in
  Core.Node.Origin.set_static origin ~path:"/hot.html" ~max_age:60
    "<html>flash crowd at the origin</html>";
  Core.Node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
    ~max_age:300 site_script;
  let pa = Core.Node.Cluster.add_proxy cluster ~name:hot_proxy ~config () in
  let neighbors =
    List.map (fun name -> Core.Node.Cluster.add_proxy cluster ~name ~config ()) neighbor_names
  in
  let clients =
    [
      Core.Node.Cluster.add_client cluster ~name:"c1";
      Core.Node.Cluster.add_client cluster ~name:"c2";
      Core.Node.Cluster.add_client cluster ~name:"c3";
    ]
  in
  let sim = Core.Node.Cluster.sim cluster in
  let client_arr = Array.of_list clients in
  let recorder = Driver.recorder cluster in
  (* 600 requests for the hot page inside ~1.2 s, every one pinned to
     nk-a (the client population that a stale DNS answer or a hardcoded
     proxy setting sends to one node), starting after every proxy's
     health tick has reported at least once. Request n (in issue order,
     from 0) comes from client (n + 1) mod 3. *)
  for i = 0 to 599 do
    Sim.schedule_at sim
      (Sim.epoch +. 5.0 +. (0.002 *. float_of_int i))
      (fun () ->
        Driver.send recorder
          ~client:client_arr.((Driver.issued recorder + 1) mod Array.length client_arr)
          ~proxy:(Some pa) ~timeout:10.0
          (Core.Http.Message.request "http://www.example.edu/hot.html"))
  done;
  let answers = Driver.finish recorder ~until:(Sim.epoch +. 60.0) in
  if attach then Harness.attach_run cluster (pa :: neighbors);
  let ma = Core.Node.Node.metrics pa in
  {
    summary = Harness.summarize ~issued:(Driver.issued recorder) answers;
    offload_spread =
      List.map
        (fun name ->
          (name, Metrics.counter ma ~labels:[ ("target", name) ] "diffusion.offloads"))
        neighbor_names;
    rejects =
      List.fold_left
        (fun acc n -> acc + Metrics.counter_total (Core.Node.Node.metrics n) "diffusion.rejects")
        0 neighbors;
    fallbacks = Metrics.counter_total ma "diffusion.fallbacks";
  }

let diffusion () =
  Harness.header "Proactive diffusion (single-site flash crowd, one hot proxy)";
  let baseline = run_scenario ~attach:false ~diffusion:false () in
  let diffused = run_scenario ~attach:true ~diffusion:true () in
  let report label o =
    Printf.printf
      "  %-24s %3d issued  %3d ok  %3d shed  %3d errors  p99 %6.3fs  (%.0f%% goodput)\n"
      label o.summary.issued o.summary.ok o.summary.shed o.summary.errors o.summary.p99
      (100.0 *. goodput o)
  in
  report "redirect-only baseline:" baseline;
  report "diffusion enabled:" diffused;
  let spread = List.filter (fun (_, n) -> n > 0) diffused.offload_spread in
  Printf.printf "  offloads from %s: %s  (rejects %d, local fallbacks %d)\n" hot_proxy
    (String.concat ", "
       (List.map (fun (name, n) -> Printf.sprintf "%s=%d" name n) diffused.offload_spread))
    diffused.rejects diffused.fallbacks;
  Printf.printf "  goodput %.2f -> %.2f %s   p99 %.3fs -> %.3fs %s   spread %d %s\n"
    (goodput baseline) (goodput diffused)
    (if goodput diffused > goodput baseline then "(improved: pass)" else "(NOT IMPROVED)")
    baseline.summary.p99 diffused.summary.p99
    (if diffused.summary.p99 <= baseline.summary.p99 then "(bounded: pass)" else "(WORSE)")
    (List.length spread)
    (if List.length spread >= 2 then "(>= 2 neighbors: pass)" else "(TOO NARROW)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "diffusion.baseline-goodput" (goodput baseline);
    Metrics.set_gauge m "diffusion.enabled-goodput" (goodput diffused);
    Metrics.set_gauge m "diffusion.baseline-p99" baseline.summary.p99;
    Metrics.set_gauge m "diffusion.enabled-p99" diffused.summary.p99;
    Metrics.set_gauge m "diffusion.offload-spread" (float_of_int (List.length spread));
    Metrics.set_gauge m "diffusion.baseline-sheds" (float_of_int baseline.summary.shed);
    Metrics.set_gauge m "diffusion.enabled-sheds" (float_of_int diffused.summary.shed)
