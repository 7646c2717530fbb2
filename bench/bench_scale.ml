(* Planet-scale capacity curve: goodput and p99 vs fleet size under a
   Zipf crowd, with hotspot replication off vs on (BENCH_scale.json).

   The topology models an open edge network: n proxies, one origin,
   and one client pinned near each proxy (cross-traffic latency is
   10x the local link, so the redirector's close-set keeps each
   client on its own edge node and the whole fleet absorbs the
   crowd). Demand is a fixed-rate open-loop stream whose URLs follow
   a Zipf(s = 0.9) popularity law over a 10k-URL universe — the same
   total demand at every fleet size, so the curve isolates how the
   overlay itself scales: at 1000 nodes almost every request is a
   first contact (perfect cache dilution) and the DHT's routing hops
   dominate, which is exactly the regime Coral-style sloppy
   replication of hot keys is supposed to rescue. The fleet and the
   crowd are Workload.Crowd's, which the determinism soak runs too.

   Acceptance (checked in the printed report and exported as gauges):
   with replication on, 1000-node goodput stays within 90% of the
   100-node figure, and the p99 of hot-URL requests (the crowd's
   head, ranks 0-15) improves versus replication off.

   NAKIKA_SCALE_NODES (comma-separated fleet sizes) and
   NAKIKA_SCALE_REQUESTS override the defaults so CI can run a
   reduced curve. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim
module Crowd = Core.Workload.Crowd

let universe = 10_000
let hot_ranks = 16 (* the crowd's head: URLs whose p99 the report tracks *)
let rate = 1200.0 (* requests/second, total, at every fleet size *)

let node_counts =
  match Sys.getenv_opt "NAKIKA_SCALE_NODES" with
  | None -> [ 10; 100; 1000 ]
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun x -> int_of_string_opt (String.trim x))

let total_requests =
  match Option.bind (Sys.getenv_opt "NAKIKA_SCALE_REQUESTS") int_of_string_opt with
  | Some n -> n
  | None -> 36_000

type outcome = {
  nodes : int;
  replication : bool;
  all : Harness.summary;
  hot : Harness.summary;  (** the answers for the crowd's head *)
  mean_hops : float;
  sloppy_hits : int;
  replications : int;
  hotspots_live : int;
  events : int;
}

let hot_urls = List.init hot_ranks Crowd.url

let run_arm ~nodes ~replication =
  let { Crowd.cluster; clients; _ } = Crowd.fleet ~nodes ~universe ~hotspots:replication in
  let issued, answers =
    Crowd.run cluster ~universe ~requests:total_requests ~rate ~slack:15.0 (Crowd.Fleet clients)
  in
  let hot =
    List.filter (fun (a : Core.Workload.Driver.answer) -> List.mem a.url hot_urls) answers
  in
  let sim = Core.Node.Cluster.sim cluster in
  let dht = Core.Node.Cluster.dht cluster in
  let dm = Core.Overlay.Dht.metrics dht in
  let mean_hops =
    match Metrics.histogram dm "dht.hops" with
    | Some h when Metrics.Histogram.count h > 0 ->
      Metrics.Histogram.sum h /. float_of_int (Metrics.Histogram.count h)
    | _ -> 0.0
  in
  {
    nodes;
    replication;
    all = Harness.summarize ~issued answers;
    hot = Harness.summarize ~issued:(List.length hot) hot;
    mean_hops;
    sloppy_hits = Metrics.counter dm "dht.sloppy_hits";
    replications = Metrics.counter dm "dht.hotspot_replications";
    hotspots_live = List.length (Core.Overlay.Dht.hotspots dht ~now:(Sim.now sim));
    events = Sim.executed sim;
  }

let export o =
  match Harness.registry () with
  | None -> ()
  | Some m ->
    let p = Printf.sprintf "scale.n%d.%s" o.nodes (if o.replication then "on" else "off") in
    Metrics.set_gauge m (p ^ ".goodput") (Harness.goodput o.all);
    Metrics.set_gauge m (p ^ ".p99") o.all.p99;
    Metrics.set_gauge m (p ^ ".hot-p99") o.hot.p99;
    Metrics.set_gauge m (p ^ ".mean-hops") o.mean_hops;
    Metrics.set_gauge m (p ^ ".issued") (float_of_int o.all.issued);
    Metrics.set_gauge m (p ^ ".ok") (float_of_int o.all.ok);
    Metrics.set_gauge m (p ^ ".sloppy-hits") (float_of_int o.sloppy_hits);
    Metrics.set_gauge m (p ^ ".hotspot-replications") (float_of_int o.replications);
    Metrics.set_gauge m (p ^ ".hotspots") (float_of_int o.hotspots_live);
    Metrics.set_gauge m (p ^ ".sim-events") (float_of_int o.events)

let scale () =
  Harness.header "Planet-scale capacity curve (Zipf crowd, hotspot replication off vs on)";
  Printf.printf "  universe %d URLs, skew 0.9, %d requests at %.0f req/s\n" universe
    total_requests rate;
  let outcomes =
    List.concat_map
      (fun nodes ->
        List.map
          (fun replication ->
            let o = run_arm ~nodes ~replication in
            Printf.printf
              "  %4d nodes %s: %5d ok/%5d  %4d shed  %3d err  p99 %6.1fms  hot-p99 %6.1fms  \
               hops %4.1f  sloppy %5d  repl %3d  (%d sim events)\n%!"
              nodes
              (if replication then "repl-on " else "repl-off")
              o.all.ok o.all.issued o.all.shed o.all.errors (1000.0 *. o.all.p99)
              (1000.0 *. o.hot.p99)
              o.mean_hops o.sloppy_hits o.replications o.events;
            export o;
            o)
          [ false; true ])
      node_counts
  in
  let find nodes replication =
    List.find_opt (fun o -> o.nodes = nodes && o.replication = replication) outcomes
  in
  let biggest = List.fold_left max 0 node_counts in
  let mid = List.fold_left (fun acc n -> if n < biggest then max acc n else acc) 0 node_counts in
  (match (find biggest true, find mid true, find biggest false) with
   | Some big_on, Some mid_on, Some big_off when mid > 0 ->
     let ratio = Harness.goodput big_on.all /. Float.max 1e-9 (Harness.goodput mid_on.all) in
     let hot_gain = big_off.hot.p99 -. big_on.hot.p99 in
     Printf.printf
       "  goodput %d vs %d nodes (repl on): %.3f %s   hot-p99 %d nodes: off %.1fms on %.1fms %s\n"
       biggest mid ratio
       (if ratio >= 0.9 then "(>= 0.90: pass)" else "(BELOW TARGET)")
       biggest (1000.0 *. big_off.hot.p99) (1000.0 *. big_on.hot.p99)
       (if hot_gain > 0.0 then "(improved: pass)" else "(NOT IMPROVED)");
     (match Harness.registry () with
      | None -> ()
      | Some m ->
        Metrics.set_gauge m "scale.goodput-ratio-big-vs-mid" ratio;
        Metrics.set_gauge m "scale.hot-p99-off" big_off.hot.p99;
        Metrics.set_gauge m "scale.hot-p99-on" big_on.hot.p99;
        Metrics.set_gauge m "scale.hot-p99-gain" hot_gain)
   | _ -> ())
