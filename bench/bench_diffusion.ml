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
  issued : int;
  ok : int;
  rejected : int;
  errors : int;
  p99 : float;
  offload_spread : (string * int) list;  (** per-neighbor offload counts at nk-a *)
  rejects : int;
  fallbacks : int;
}

let goodput o = float_of_int o.ok /. float_of_int (max 1 o.issued)

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
  let issued = ref 0 and ok = ref 0 and rejected = ref 0 and errors = ref 0 in
  let latencies = ref [] in
  (* 600 requests for the hot page inside ~1.2 s, every one pinned to
     nk-a (the client population that a stale DNS answer or a hardcoded
     proxy setting sends to one node), starting after the health plane
     has gossiped at least once. *)
  for i = 0 to 599 do
    Sim.schedule_at sim
      (Sim.epoch +. 5.0 +. (0.002 *. float_of_int i))
      (fun () ->
        incr issued;
        let started = Sim.now sim in
        Core.Node.Cluster.fetch cluster
          ~client:client_arr.(!issued mod Array.length client_arr)
          ~proxy:pa ~timeout:10.0
          (Core.Http.Message.request "http://www.example.edu/hot.html")
          (fun resp ->
            match resp.Core.Http.Message.status with
            | 200 ->
              incr ok;
              latencies := (Sim.now sim -. started) :: !latencies
            | 503 -> incr rejected
            | _ -> incr errors))
  done;
  Sim.run ~until:(Sim.epoch +. 60.0) sim;
  if attach then begin
    List.iter Harness.attach_node (pa :: neighbors);
    match Harness.registry () with
    | Some m -> Metrics.merge ~into:m (Core.Sim.Net.metrics (Core.Node.Cluster.net cluster))
    | None -> ()
  end;
  let p99 =
    match List.sort compare !latencies with
    | [] -> 0.0
    | sorted ->
      let n = List.length sorted in
      List.nth sorted (min (n - 1) (int_of_float (Float.of_int n *. 0.99)))
  in
  let ma = Core.Node.Node.metrics pa in
  {
    issued = !issued;
    ok = !ok;
    rejected = !rejected;
    errors = !errors;
    p99;
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
      label o.issued o.ok o.rejected o.errors o.p99 (100.0 *. goodput o)
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
    baseline.p99 diffused.p99
    (if diffused.p99 <= baseline.p99 then "(bounded: pass)" else "(WORSE)")
    (List.length spread)
    (if List.length spread >= 2 then "(>= 2 neighbors: pass)" else "(TOO NARROW)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "diffusion.baseline-goodput" (goodput baseline);
    Metrics.set_gauge m "diffusion.enabled-goodput" (goodput diffused);
    Metrics.set_gauge m "diffusion.baseline-p99" baseline.p99;
    Metrics.set_gauge m "diffusion.enabled-p99" diffused.p99;
    Metrics.set_gauge m "diffusion.offload-spread" (float_of_int (List.length spread));
    Metrics.set_gauge m "diffusion.baseline-sheds" (float_of_int baseline.rejected);
    Metrics.set_gauge m "diffusion.enabled-sheds" (float_of_int diffused.rejected)
