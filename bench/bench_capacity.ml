(* §5.1 micro-benchmarks M1/M2: node capacity with and without the
   scripting pipeline, the per-operation costs, and the effectiveness of
   congestion-based resource controls under a flash crowd with a
   misbehaving (memory bomb) script. *)

let duration = 20.0

let warmup = 3.0

let make_cluster ~controls ~with_bomb () =
  let config =
    { Core.Node.Config.default with Core.Node.Config.enable_resource_controls = controls }
  in
  let cluster = Core.Node.Cluster.create ~seed:5 () in
  let good = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Flashcrowd.good_host () in
  Core.Workload.Flashcrowd.install_good_site good;
  if with_bomb then begin
    let bomb = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Flashcrowd.bomb_host () in
    Core.Workload.Flashcrowd.install_bomb_site bomb
  end;
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  (cluster, proxy)

let plain_cluster () =
  let cluster = Core.Node.Cluster.create ~seed:5 () in
  let good = Core.Node.Cluster.add_origin cluster ~name:Core.Workload.Flashcrowd.good_host () in
  Core.Workload.Flashcrowd.install_good_site good;
  let proxy =
    Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net"
      ~config:Core.Node.Config.plain_proxy ()
  in
  (cluster, proxy)

let clients cluster n =
  List.init n (fun i ->
      Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "lg%d" i))

let run_good_load ?(extra_bomb_clients = 0) (cluster, proxy) ~generators =
  let good_clients = clients cluster generators in
  let bomb_clients =
    List.init extra_bomb_clients (fun i ->
        Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "bomb-lg%d" i))
  in
  (* Bomb clients run their own loop; measurements track the good site. *)
  let sim = Core.Node.Cluster.sim cluster in
  let until = Core.Sim.Sim.now sim +. warmup +. duration in
  List.iter
    (fun client ->
      Core.Workload.Driver.closed_loop cluster ~client ~proxy ~until
        ~make_request:(fun _ -> Core.Workload.Flashcrowd.bomb_request ())
        ~on_response:(fun _ _ _ _ -> ())
        ())
    bomb_clients;
  let result =
    Harness.run_load cluster ~clients:good_clients ~proxy ~duration ~warmup
      ~make_request:(fun _ _ -> Core.Workload.Flashcrowd.good_request ())
      ()
  in
  (result, proxy)

let micro_costs () =
  Harness.header "Per-operation costs (the §5.1 cost model constants)";
  let c = Core.Node.Config.default_costs in
  List.iter
    (fun (label, paper, ours) ->
      Harness.paper_vs_measured ~label ~paper ~measured:ours ~unit_:"")
    [
      ("retrieve resource from cache", "1.1 ms", Printf.sprintf "%.2f ms" (1000.0 *. c.Core.Node.Config.cache_hit));
      ("create scripting context", "1.5 ms", Printf.sprintf "%.2f ms" (1000.0 *. c.Core.Node.Config.context_create));
      ("reuse scripting context", "3 us", Printf.sprintf "%.1f us" (1e6 *. c.Core.Node.Config.context_reuse));
      ("cached decision tree", "4 us", Printf.sprintf "%.1f us" (1e6 *. c.Core.Node.Config.tree_cached));
      ("predicate evaluation", "< 38 us", Printf.sprintf "%.1f us" (1e6 *. c.Core.Node.Config.predicate_eval));
      ("parse+execute script (size-dependent)", "0.08-17.8 ms",
       Printf.sprintf "%.2f ms + %.1f us/B" (1000.0 *. c.Core.Node.Config.parse_base)
         (1e6 *. c.Core.Node.Config.parse_per_byte));
    ]

let capacity () =
  Harness.header "Capacity: plain proxy vs Match-1 (requests/second at saturation)";
  let plain30, _ = run_good_load (plain_cluster ()) ~generators:30 in
  let plain90, _ = run_good_load (plain_cluster ()) ~generators:90 in
  let m1_30, _ = run_good_load (make_cluster ~controls:false ~with_bomb:false ()) ~generators:30 in
  let m1_90, _ = run_good_load (make_cluster ~controls:false ~with_bomb:false ()) ~generators:90 in
  Harness.paper_vs_measured ~label:"plain proxy, 30 generators" ~paper:"603 rps"
    ~measured:(Printf.sprintf "%.0f rps" (Harness.throughput plain30)) ~unit_:"";
  Harness.paper_vs_measured ~label:"plain proxy, 90 generators" ~paper:"-"
    ~measured:(Printf.sprintf "%.0f rps" (Harness.throughput plain90)) ~unit_:"";
  Harness.paper_vs_measured ~label:"Match-1, 30 generators (no controls)" ~paper:"294 rps"
    ~measured:(Printf.sprintf "%.0f rps" (Harness.throughput m1_30)) ~unit_:"";
  Harness.paper_vs_measured ~label:"Match-1, 90 generators (no controls)" ~paper:"229 rps"
    ~measured:(Printf.sprintf "%.0f rps" (Harness.throughput m1_90)) ~unit_:"";
  Printf.printf "  shape check: plain proxy ~2x Match-1; overload degrades without controls\n"

let fraction part total = if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let resource_controls () =
  Harness.header "Resource controls (§5.1): flash crowd with and without CONTROL";
  let report label paper (r : Harness.load_result) proxy =
    (* Reject/drop fractions are over everything the node was offered,
       including the misbehaving site's requests. *)
    let count = Core.Telemetry.Metrics.counter (Core.Node.Node.metrics proxy) in
    let offered = count "requests" in
    Printf.printf
      "  %-44s paper %8s  measured %6.0f rps  (rejects %5.2f%%, drops %5.2f%%%s)\n" label paper
      (Harness.throughput r)
      (fraction (count "rejected-throttle") offered)
      (fraction (count "dropped-termination") offered)
      (match
         List.find_map
           (fun (name, labels, n) ->
             if name = "monitor.terminations" && n > 0 then List.assoc_opt "site" labels
             else None)
           (Core.Telemetry.Metrics.counters (Core.Node.Node.metrics proxy))
       with
       | None -> ""
       | Some site -> Printf.sprintf "; terminated: %s" site);
    (* The monitor's decisions as structured telemetry: site-labeled
       counters plus the throttle/terminate event stream. *)
    let metrics = Core.Node.Node.metrics proxy in
    let throttles = Core.Telemetry.Metrics.counter_total metrics "monitor.throttles" in
    let terminations = Core.Telemetry.Metrics.counter_total metrics "monitor.terminations" in
    match Core.Node.Node.events proxy with
    | Some events when throttles > 0 || terminations > 0 ->
      Printf.printf "      monitor decisions: %d throttle(s), %d termination(s)\n"
        throttles terminations;
      let events = Core.Telemetry.Events.to_list events in
      let tail =
        let n = List.length events in
        List.filteri (fun i _ -> i >= n - 3) events
      in
      List.iter
        (fun e ->
          Printf.printf "        %s\n" (Core.Telemetry.Events.event_to_string e))
        tail
    | _ -> ()
  in
  let r1, p1 = run_good_load (make_cluster ~controls:false ~with_bomb:false ()) ~generators:30 in
  report "30 generators, no controls" "294 rps" r1 p1;
  let r2, p2 = run_good_load (make_cluster ~controls:true ~with_bomb:false ()) ~generators:30 in
  report "30 generators, with controls" "396 rps" r2 p2;
  let r3, p3 = run_good_load (make_cluster ~controls:false ~with_bomb:false ()) ~generators:90 in
  report "90 generators, no controls" "229 rps" r3 p3;
  let r4, p4 = run_good_load (make_cluster ~controls:true ~with_bomb:false ()) ~generators:90 in
  report "90 generators, with controls" "356 rps" r4 p4;
  let r5, p5 =
    run_good_load
      (make_cluster ~controls:false ~with_bomb:true ())
      ~generators:30 ~extra_bomb_clients:1
  in
  report "30 generators + memory bomb, no controls" "47 rps" r5 p5;
  let r6, p6 =
    run_good_load
      (make_cluster ~controls:true ~with_bomb:true ())
      ~generators:30 ~extra_bomb_clients:1
  in
  report "30 generators + memory bomb, with controls" "382 rps" r6 p6;
  Printf.printf
    "  shape check: without controls the bomb collapses throughput; with controls the\n";
  Printf.printf
    "  monitor throttles then terminates the offending site and the good site survives\n"
