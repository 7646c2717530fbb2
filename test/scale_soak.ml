(* Determinism soak at planet scale: a 1000-node cluster absorbing a
   Zipf crowd for >= 10^6 simulated events, run twice from the same
   seed — the telemetry of both runs (DHT, network, and every node's
   registry, rendered to JSON lines) must be bit-identical, and so
   must the response stream digest. This is PR 4's same-seed chaos
   property at 100x the scale, covering the ordered-set ring, the
   redirector's proximity cache, the alias-table Zipf sampler, and
   hotspot replication's PRNG-driven placement.

   Gated behind `dune build @scale-soak` (not part of `dune runtest`):
   the two runs take a minute or so. NAKIKA_SOAK_NODES and
   NAKIKA_SOAK_REQUESTS shrink it for spot checks; the 10^6
   event-volume floor applies at the full default scale, reduced runs
   keep a per-request floor so an early exit cannot pass. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim

let nodes =
  match Option.bind (Sys.getenv_opt "NAKIKA_SOAK_NODES") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1000

let requests =
  match Option.bind (Sys.getenv_opt "NAKIKA_SOAK_REQUESTS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 135_000

let universe = 10_000
let rate = 3000.0

let run () =
  let cluster =
    Core.Node.Cluster.create ~seed:4242 ~default_latency:0.005
      ~default_bandwidth:12_500_000.0 ()
  in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.crowd.example" () in
  for r = 0 to universe - 1 do
    Core.Node.Origin.set_static origin
      ~path:(Printf.sprintf "/zipf/%d.html" r)
      ~max_age:600
      (Printf.sprintf "<html>zipf rank %d</html>" r)
  done;
  let config =
    {
      Core.Node.Config.default with
      Core.Node.Config.enable_pipeline = false;
      enable_tracing = false;
      enable_resource_controls = false;
      lint_mode = `Off;
      enable_hotspots = true;
      hotspot_threshold = 5.0;
      hotspot_replicas = 4;
      hotspot_ttl = 60.0;
      hotspot_halflife = 5.0;
    }
  in
  let proxies =
    List.init nodes (fun i ->
        Core.Node.Cluster.add_proxy cluster ~name:(Printf.sprintf "edge-%04d.nakika.net" i)
          ~config ())
  in
  let clients =
    List.mapi
      (fun i proxy ->
        let c = Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "client-%04d" i) in
        Core.Node.Cluster.connect cluster c (Core.Node.Node.host proxy) ~latency:0.0005
          ~bandwidth:12_500_000.0;
        c)
      proxies
    |> Array.of_list
  in
  let sim = Core.Node.Cluster.sim cluster in
  let zipf = Core.Workload.Zipf.create ~s:0.9 ~universe in
  let wl = Core.Util.Prng.create 9001 in
  let statuses = Buffer.create (2 * requests) in
  let ok = ref 0 and latency_sum = ref 0.0 in
  for i = 0 to requests - 1 do
    let at = Sim.epoch +. 5.0 +. (float_of_int i /. rate) in
    let rank = Core.Workload.Zipf.sample zipf wl in
    let client = clients.(Core.Util.Prng.int wl (Array.length clients)) in
    let url = Printf.sprintf "http://www.crowd.example/zipf/%d.html" rank in
    Sim.schedule_at sim at (fun () ->
        let started = Sim.now sim in
        Core.Node.Cluster.fetch cluster ~client ~timeout:10.0 (Core.Http.Message.request url)
          (fun resp ->
            Buffer.add_string statuses (string_of_int resp.Core.Http.Message.status);
            Buffer.add_char statuses ';';
            if resp.Core.Http.Message.status = 200 then begin
              incr ok;
              latency_sum := !latency_sum +. (Sim.now sim -. started)
            end))
  done;
  Sim.run ~until:(Sim.epoch +. 5.0 +. (float_of_int requests /. rate) +. 15.0) sim;
  let merged = Metrics.create () in
  Metrics.merge ~into:merged (Core.Overlay.Dht.metrics (Core.Node.Cluster.dht cluster));
  Metrics.merge ~into:merged (Core.Sim.Net.metrics (Core.Node.Cluster.net cluster));
  List.iter (fun p -> Metrics.merge ~into:merged (Core.Node.Node.metrics p)) proxies;
  let digest =
    Printf.sprintf "ok=%d latency_sum=%.9f statuses=%s" !ok !latency_sum
      (Core.Crypto.Sha256.digest_hex (Buffer.contents statuses))
  in
  (Sim.executed sim, digest, Metrics.to_json_lines merged)

let () =
  Printf.printf "scale soak: %d nodes, %d Zipf requests, two same-seed runs\n%!" nodes requests;
  let t0 = Sys.time () in
  let events1, digest1, telemetry1 = run () in
  let t1 = Sys.time () in
  let events2, digest2, telemetry2 = run () in
  let t2 = Sys.time () in
  Printf.printf "  run 1: %d events (%.1fs)   run 2: %d events (%.1fs)\n" events1 (t1 -. t0)
    events2 (t2 -. t1);
  Printf.printf "  digest: %s\n" digest1;
  (* Events per request grow with ring size (hops ~ log n), so the
     10^6 floor is a full-scale claim; reduced spot-checks still must
     clear a few events per request, so an early exit cannot pass. *)
  let min_events =
    if nodes >= 1000 && requests >= 135_000 then 1_000_000 else requests * 3
  in
  let failures = ref 0 in
  let check label ok = if ok then Printf.printf "  %s: ok\n" label
    else begin
      Printf.printf "  %s: FAILED\n" label;
      incr failures
    end
  in
  check (Printf.sprintf "event volume >= %d" min_events)
    (events1 >= min_events && events2 >= min_events);
  check "event counts identical" (events1 = events2);
  check "response stream digests identical" (digest1 = digest2);
  check
    (Printf.sprintf "telemetry bit-identical (%d bytes)" (String.length telemetry1))
    (String.equal telemetry1 telemetry2);
  if !failures > 0 then begin
    Printf.eprintf "scale soak: %d check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "scale soak: PASS"
