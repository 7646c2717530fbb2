(* Overload resilience: the flash-crowd acceptance scenario as an
   experiment. The same 3-node topology and workload run twice — once
   fault-free and once with one proxy crashing mid-crowd (it restarts)
   and one origin dead for the rest of the run — and the report checks
   that goodput stays at >= 70% of the baseline with a bounded p99.
   The degraded run composes every overload defense: admission control
   sheds the spike's excess, the redirector routes around the crashed
   node, the dead origin's circuit breaker fails fast (bounding how
   many requests ever reach it), and stale-if-error keeps serving its
   content. BENCH_overload.json records both runs' goodput, the p99s,
   and the defense counters (admission.sheds, breaker.opens,
   cache.stale_served, quarantine.bans).

   CI reruns this under NAKIKA_CHAOS_SEED 1-3; the seed perturbs the
   cluster PRNG (redirection spread, workload jitter), not the fault
   schedule, which stays fixed so the two runs are comparable. *)

module Plan = Core.Faults.Plan
module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim

let epoch = 1_136_073_600.0

let seed_base =
  match int_of_string_opt (try Sys.getenv "NAKIKA_CHAOS_SEED" with Not_found -> "0") with
  | Some n -> n * 1_000_003
  | None -> 0

let proxy_names = [ "nk-a.nakika.net"; "nk-b.nakika.net"; "nk-c.nakika.net" ]

type outcome = {
  issued : int;
  ok : int;
  rejected : int;
  errors : int;
  dead_origin_hits : int;
  p99 : float;
}

let goodput o = float_of_int o.ok /. float_of_int (max 1 o.issued)

(* The workload, identical across runs:
   - a flash crowd: 600 requests for one hot page inside ~1.2 s —
     enough to overrun a node's admission queue — issued through the
     redirector (so health-aware redirection decides which node absorbs
     each), and
   - a background stream of 30 requests over 30 s for a page whose
     origin dies in the degraded run (short max-age, so after the first
     copy expires only stale-if-error can keep answering). *)
let run_scenario ~attach plan =
  let cluster = Core.Node.Cluster.create ~seed:(seed_base + Plan.seed plan) ~faults:plan () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.example.edu" () in
  Core.Node.Origin.set_static origin ~path:"/hot.html" ~max_age:60 "<html>flash crowd</html>";
  let dead = Core.Node.Cluster.add_origin cluster ~name:"dead.example.org" () in
  Core.Node.Origin.set_static dead ~path:"/item.html" ~max_age:2 "<html>fragile</html>";
  let proxies =
    List.map (fun name -> Core.Node.Cluster.add_proxy cluster ~name ()) proxy_names
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
  let fetch_at at url =
    Sim.schedule_at sim at (fun () ->
        incr issued;
        let started = Sim.now sim in
        Core.Node.Cluster.fetch cluster
          ~client:client_arr.(!issued mod Array.length client_arr)
          ~timeout:10.0 (Core.Http.Message.request url)
          (fun resp ->
            match resp.Core.Http.Message.status with
            | 200 ->
              incr ok;
              latencies := (Sim.now sim -. started) :: !latencies
            | 503 -> incr rejected
            | _ -> incr errors))
  in
  for i = 0 to 599 do
    fetch_at (epoch +. 5.0 +. (0.002 *. float_of_int i)) "http://www.example.edu/hot.html"
  done;
  for i = 0 to 29 do
    fetch_at (epoch +. 1.0 +. float_of_int i) "http://dead.example.org/item.html"
  done;
  (* Past the last client timeout (offset 30 + 10 s) with slack for the
     restarted node's daemons. *)
  Sim.run ~until:(epoch +. 90.0) sim;
  if attach then begin
    List.iter Harness.attach_node proxies;
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
  {
    issued = !issued;
    ok = !ok;
    rejected = !rejected;
    errors = !errors;
    dead_origin_hits = Core.Node.Origin.request_count dead;
    p99;
  }

let overload () =
  Harness.header "Overload resilience (flash crowd + crash + dead origin)";
  let baseline = run_scenario ~attach:false (Plan.create ~seed:5 ()) in
  let plan = Plan.create ~seed:5 () in
  (* One node crashes as the crowd peaks and restarts 15 s later; the
     fragile origin dies just before the background stream's cached
     copy expires and never comes back. *)
  Plan.crash plan ~host:"nk-b.nakika.net" ~at:(epoch +. 5.6) ~restart:(epoch +. 21.0) ();
  Plan.fail_origin plan ~host:"dead.example.org" ~at:(epoch +. 4.0) ~until:(epoch +. 90.0);
  let degraded = run_scenario ~attach:true plan in
  let ratio = goodput degraded /. Float.max 1e-9 (goodput baseline) in
  let report label o =
    Printf.printf "  %-28s %3d issued  %3d ok  %3d shed  %3d errors  p99 %6.3fs  (%.0f%% goodput)\n"
      label o.issued o.ok o.rejected o.errors o.p99 (100.0 *. goodput o)
  in
  report "fault-free baseline:" baseline;
  report "crash + dead origin:" degraded;
  Printf.printf "  dead-origin fetches: baseline %d, degraded %d (breaker-bounded)\n"
    baseline.dead_origin_hits degraded.dead_origin_hits;
  Printf.printf "  goodput ratio: %.2f %s   degraded p99: %.3fs %s\n" ratio
    (if ratio >= 0.7 then "(>= 0.70: pass)" else "(BELOW TARGET)")
    degraded.p99
    (if degraded.p99 <= 8.0 then "(bounded: pass)" else "(UNBOUNDED)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "overload.baseline-goodput" (goodput baseline);
    Metrics.set_gauge m "overload.degraded-goodput" (goodput degraded);
    Metrics.set_gauge m "overload.goodput-ratio" ratio;
    Metrics.set_gauge m "overload.baseline-p99" baseline.p99;
    Metrics.set_gauge m "overload.degraded-p99" degraded.p99;
    Metrics.set_gauge m "overload.dead-origin-hits" (float_of_int degraded.dead_origin_hits)
