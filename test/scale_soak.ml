(* Determinism soak at planet scale: a 1000-node cluster absorbing a
   Zipf crowd for >= 10^6 simulated events, run twice from the same
   seed — the telemetry of both runs (DHT, network, and every node's
   registry, rendered to JSON lines) must be bit-identical, and so
   must the response stream digest. This is PR 4's same-seed chaos
   property at 100x the scale, covering the ordered-set ring, the
   redirector's proximity cache, the alias-table Zipf sampler, and
   hotspot replication's PRNG-driven placement.

   The fleet and the crowd are Workload.Crowd's, as in the capacity
   curve (bench -- scale). Gated behind `dune build @scale-soak` (not
   part of `dune runtest`, which runs a 10-node crowd instead): the
   two runs take about 20 s on a shared 2-vCPU VM. NAKIKA_SOAK_NODES
   and NAKIKA_SOAK_REQUESTS shrink it for spot checks; the 10^6
   event-volume floor applies at the full default scale, reduced runs
   keep a per-request floor so an early exit cannot pass. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim
module Crowd = Core.Workload.Crowd
module Driver = Core.Workload.Driver

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

(* Statuses in answer order, and the served requests' latency sum. *)
let digest answers =
  let status a = a.Driver.response.Core.Http.Message.status in
  let served = List.filter (fun a -> status a = 200) answers in
  Printf.sprintf "ok=%d latency_sum=%.9f statuses=%s" (List.length served)
    (List.fold_left (fun sum a -> sum +. (a.Driver.received -. a.Driver.sent)) 0.0 served)
    (Core.Crypto.Sha256.digest_hex
       (String.concat "" (List.map (fun a -> string_of_int (status a) ^ ";") answers)))

let run () =
  let { Crowd.cluster; proxies; clients } = Crowd.fleet ~nodes ~universe ~hotspots:true in
  let _, answers =
    Crowd.run cluster ~universe ~requests ~rate ~slack:15.0 (Crowd.Fleet clients)
  in
  let merged = Metrics.create () in
  Metrics.merge ~into:merged (Core.Overlay.Dht.metrics (Core.Node.Cluster.dht cluster));
  Metrics.merge ~into:merged (Core.Sim.Net.metrics (Core.Node.Cluster.net cluster));
  List.iter (fun p -> Metrics.merge ~into:merged (Core.Node.Node.metrics p)) proxies;
  (Sim.executed (Core.Node.Cluster.sim cluster), digest answers, Metrics.to_json_lines merged)

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
