(* Proactive computation diffusion (C3PO over the health plane): the
   pressure signal, the offload protocol end to end over the message
   bus, fallback safety under crashed targets, the hash-miss script
   fetch path, and the incarnation guards under chaos. *)

open Core.Node
open Core.Http
module Offload = Core.Diffusion.Offload
module Pressure = Core.Diffusion.Pressure
module Bus = Core.Replication.Message_bus
module Policy = Core.Diffusion.Policy

let fetch_sync cluster ~client ?proxy req =
  let result = ref None in
  Cluster.fetch cluster ~client ?proxy req (fun resp -> result := Some resp);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "no response"

let body (r : Message.response) = Body.to_string r.Message.resp_body

let site_script =
  {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("hello", "edge"));
}
p.register();
|}

let transforming_site cluster =
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/index.html" ~max_age:300 "<html>hello</html>";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    site_script;
  origin

let diffusion_config =
  {
    Config.default with
    Config.diffusion =
      Some
        {
          Core.Diffusion.Policy.default with
          (* Offload on any pressure at all, and trust planted or
             reported load reports for a long time: the tests drive the
             decision deterministically instead of waiting for a real
             flash crowd. *)
          low_water = 0.0;
          staleness = 1000.0;
          offload_timeout = 0.3;
        };
  }

(* Plant [node] in the cluster's one report table as an irresistibly
   idle diffusion neighbor (pressure below anything a node can report),
   stamped with [incarnation] as its own health tick would stamp it. *)
let plant cluster node ~incarnation =
  Core.Overlay.Redirector.report (Cluster.redirector cluster) (Node.host node) ~incarnation
    ~pressure:(-1.0) ~queue_delay:0.0 ~shed_rate:0.0 ()

(* --- pressure: monotone, bounded, proactive crossing ------------------- *)

let pressure_monotone_prop =
  QCheck.Test.make ~name:"diffusion pressure: bounded and monotone in every input"
    ~count:300
    QCheck.(
      quad (float_range 0.0 5.0) (float_range 0.0 1.0) (float_range 0.0 1.0)
        (float_range 0.0 2.0))
    (fun (delay, shed, qfrac, delta) ->
      let p = Pressure.compute ~target:0.5 ~queue_delay:delay ~shed_rate:shed ~queue_frac:qfrac in
      let ok_bounds = p >= 0.0 && p <= 1.0 in
      let mono f = f () >= p -. 1e-12 in
      ok_bounds
      && mono (fun () ->
             Pressure.compute ~target:0.5 ~queue_delay:(delay +. delta) ~shed_rate:shed
               ~queue_frac:qfrac)
      && mono (fun () ->
             Pressure.compute ~target:0.5 ~queue_delay:delay
               ~shed_rate:(Float.min 1.0 (shed +. delta))
               ~queue_frac:qfrac)
      && mono (fun () ->
             Pressure.compute ~target:0.5 ~queue_delay:delay ~shed_rate:shed
               ~queue_frac:(Float.min 1.0 (qfrac +. delta)))
      || QCheck.Test.fail_reportf "non-monotone at delay=%f shed=%f qfrac=%f delta=%f"
           delay shed qfrac delta)

let test_pressure_crossing () =
  (* The signal crosses 0.5 exactly when the queueing delay reaches the
     admission target — the low water sits below that, which is what
     makes diffusion proactive rather than an echo of shedding. *)
  Alcotest.(check (float 1e-9)) "0.5 at target" 0.5
    (Pressure.compute ~target:0.5 ~queue_delay:0.5 ~shed_rate:0.0 ~queue_frac:0.0);
  Alcotest.(check (float 1e-9)) "idle is zero" 0.0
    (Pressure.compute ~target:0.5 ~queue_delay:0.0 ~shed_rate:0.0 ~queue_frac:0.0);
  Alcotest.(check bool) "below target is below 0.5" true
    (Pressure.compute ~target:0.5 ~queue_delay:0.2 ~shed_rate:0.0 ~queue_frac:0.0 < 0.5);
  Alcotest.(check (float 1e-9)) "full shed saturates" 1.0
    (Pressure.compute ~target:0.5 ~queue_delay:0.0 ~shed_rate:1.0 ~queue_frac:0.0)

(* --- a spy bus member that plays the offload sender -------------------- *)

(* Attach a fake member to the deployment's bus so the test can address
   offload envelopes at real nodes and capture their replies without
   going through a (load-dependent) sender-side policy decision. *)
let attach_spy cluster ~host =
  let bus = Cluster.bus cluster in
  let replies = ref [] in
  Bus.attach bus ~name:"spy" ~host;
  Bus.subscribe bus ~name:"spy" ~topic:(Offload.reply_topic "spy")
    ~handler:(fun ~payload ~from:_ ->
      match Offload.decode_reply_envelope payload with
      | Ok r -> replies := r :: !replies
      | Error e -> Alcotest.fail ("undecodable reply: " ^ e));
  let send ~id ~target ~site ~script_hash req =
    let env =
      {
        Offload.id;
        origin_node = "spy";
        origin_incarnation = 0;
        target;
        target_incarnation = 0;
        site;
        script_hash;
        request = req;
      }
    in
    Bus.publish bus ~from:"spy" ~topic:(Offload.request_topic target)
      ~payload:(Offload.encode_request_envelope env)
  in
  (send, replies)

let reply_for replies id =
  match List.find_opt (fun (r : Offload.reply_envelope) -> r.Offload.reply_id = id) !replies with
  | Some r -> r.Offload.outcome
  | None -> Alcotest.fail (Printf.sprintf "no reply for offload %d" id)

(* --- offload round-trip equivalence ------------------------------------ *)

let test_offload_round_trip_equivalence () =
  (* The same request executed remotely on two different nodes — one
     resolving the script by fetching it from the origin (hash miss),
     one by the shipped SHA-256 alone (compile-cache hit) — must
     produce identical responses and identical fuel/heap accounting;
     and a client going through the ordinary local path must see the
     same content. *)
  Core.Script.Compile.cache_clear ();
  let cluster = Cluster.create () in
  ignore (transforming_site cluster);
  let p2 = Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config:diffusion_config () in
  let p3 = Cluster.add_proxy cluster ~name:"nk3.nakika.net" ~config:diffusion_config () in
  let p4 = Cluster.add_proxy cluster ~name:"nk4.nakika.net" ~config:diffusion_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let send, replies = attach_spy cluster ~host:client in
  let hash = Core.Crypto.Sha256.digest site_script in
  let req () = Message.request "http://www.example.edu/index.html" in
  (* Cold receiver: nothing compiled in-process, so this is the
     hash-miss path (bounded origin fetch). *)
  send ~id:0 ~target:"nk2.nakika.net" ~site:"www.example.edu" ~script_hash:hash (req ());
  Cluster.run cluster;
  (* Warm process: nk2's compile landed in the process-wide cache, so
     nk3 resolves the hash without ever seeing the source. *)
  send ~id:1 ~target:"nk3.nakika.net" ~site:"www.example.edu" ~script_hash:hash (req ());
  Cluster.run cluster;
  let fuel2, heap2, resp2 =
    match reply_for replies 0 with
    | Offload.Executed { response; fuel; heap } -> (fuel, heap, response)
    | Offload.Rejected r -> Alcotest.fail ("nk2 rejected: " ^ r)
  in
  let fuel3, heap3, resp3 =
    match reply_for replies 1 with
    | Offload.Executed { response; fuel; heap } -> (fuel, heap, response)
    | Offload.Rejected r -> Alcotest.fail ("nk3 rejected: " ^ r)
  in
  Alcotest.(check string) "transformed remotely" "<html>edge</html>" (body resp2);
  Alcotest.(check int) "status" 200 resp2.Message.status;
  Alcotest.(check string) "identical bodies" (body resp2) (body resp3);
  Alcotest.(check int) "identical status" resp2.Message.status resp3.Message.status;
  Alcotest.(check bool) "script actually ran (fuel > 0)" true (fuel2 > 0);
  Alcotest.(check int) "bit-identical fuel" fuel2 fuel3;
  Alcotest.(check int) "bit-identical heap" heap2 heap3;
  Alcotest.(check int) "cold receiver paid one hash miss" 1
    (Core.Telemetry.Metrics.counter (Node.metrics p2) "diffusion.hash_misses");
  Alcotest.(check int) "warm receiver resolved by hash alone" 0
    (Core.Telemetry.Metrics.counter (Node.metrics p3) "diffusion.hash_misses");
  (* The ordinary local path agrees with the migrated execution. *)
  let local = fetch_sync cluster ~client ~proxy:p4 (req ()) in
  Alcotest.(check string) "local path sees the same content" (body resp2) (body local);
  Alcotest.(check int) "local path sees the same status" resp2.Message.status
    local.Message.status

(* --- fallback: a dead target never loses a request --------------------- *)

let test_fallback_on_breaker_open () =
  (* nk2 is crashed from the start but planted as an idle neighbor: the
     first offload attempts time out (breaker failures), the breaker
     trips, and later requests fall back immediately — every request
     still gets its response locally. *)
  let epoch = Core.Sim.Sim.epoch in
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.crash plan ~host:"nk2.nakika.net" ~at:epoch ();
  let cluster = Cluster.create ~faults:plan () in
  ignore (transforming_site cluster);
  let p1 = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config:diffusion_config () in
  let p2 = Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config:diffusion_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  (* Warm-up: the first request executes locally (hash not yet known)
     and caches the site stage, making later requests offloadable. *)
  Alcotest.(check string) "warm-up served" "<html>edge</html>"
    (body (fetch_sync cluster ~client ~proxy:p1 (req ())));
  (* Plant nk2 as an irresistibly idle neighbor. *)
  let plant () = plant cluster p2 ~incarnation:1 in
  let failures = (Node.config p1).Config.breaker.Core.Resource.Breaker.failure_threshold in
  for i = 1 to failures do
    plant ();
    let resp = fetch_sync cluster ~client ~proxy:p1 (req ()) in
    Alcotest.(check int) (Printf.sprintf "timeout fallback %d still serves" i) 200
      resp.Message.status
  done;
  let m = Node.metrics p1 in
  Alcotest.(check int) "every timeout fell back"
    failures
    (Core.Telemetry.Metrics.counter m ~labels:[ ("reason", "timeout") ]
       "diffusion.fallbacks");
  (* The breaker is now open: the next request must not wait out
     another offload timeout, it falls back on the spot. *)
  plant ();
  let resp = fetch_sync cluster ~client ~proxy:p1 (req ()) in
  Alcotest.(check int) "breaker-open fallback serves" 200 resp.Message.status;
  Alcotest.(check bool) "breaker-open fallbacks counted" true
    (Core.Telemetry.Metrics.counter m ~labels:[ ("reason", "breaker-open") ]
       "diffusion.fallbacks"
    >= 1);
  Alcotest.(check int) "nothing was ever offloaded" 0
    (Core.Telemetry.Metrics.counter m
       ~labels:[ ("target", "nk2.nakika.net") ]
       "diffusion.offloads")

(* --- hash miss: the receiver fetches the script it does not know ------- *)

let test_hash_miss_fetches_script () =
  Core.Script.Compile.cache_clear ();
  let cluster = Cluster.create () in
  let origin = transforming_site cluster in
  let p2 = Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config:diffusion_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let send, replies = attach_spy cluster ~host:client in
  let hash = Core.Crypto.Sha256.digest site_script in
  let before = Origin.request_count origin in
  send ~id:0 ~target:"nk2.nakika.net" ~site:"www.example.edu" ~script_hash:hash
    (Message.request "http://www.example.edu/index.html");
  Cluster.run cluster;
  (match reply_for replies 0 with
   | Offload.Executed { response; fuel; _ } ->
     Alcotest.(check string) "fetched script transformed the page" "<html>edge</html>"
       (body response);
     Alcotest.(check bool) "fuel accounted" true (fuel > 0)
   | Offload.Rejected r -> Alcotest.fail ("rejected: " ^ r));
  Alcotest.(check int) "one hash miss recorded" 1
    (Core.Telemetry.Metrics.counter (Node.metrics p2) "diffusion.hash_misses");
  Alcotest.(check bool) "origin was consulted for the script" true
    (Origin.request_count origin > before)

(* --- chaos: target crashes mid-flight, incarnation guards hold --------- *)

let test_chaos_crash_during_offload () =
  (* nk2 executes one offload fine, then crashes just as the next one is
     sent and restarts moments later. The sender times out and serves
     locally (no lost request); the bus's retry then delivers the old
     envelope to the *restarted* nk2, whose incarnation no longer
     matches — it must refuse to execute work addressed to its dead
     self. *)
  let epoch = Core.Sim.Sim.epoch in
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.crash plan ~host:"nk2.nakika.net" ~at:(epoch +. 10.0)
    ~restart:(epoch +. 10.6) ();
  let cluster = Cluster.create ~faults:plan () in
  ignore (transforming_site cluster);
  let p1 = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config:diffusion_config () in
  let p2 = Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config:diffusion_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  let req () = Message.request "http://www.example.edu/index.html" in
  (* Warm-up executes locally and learns the script hash. *)
  ignore (fetch_sync cluster ~client ~proxy:p1 (req ()));
  let plant ~incarnation = plant cluster p2 ~incarnation in
  (* While nk2 is up: a real offload, executed remotely. *)
  plant ~incarnation:0;
  let resp = fetch_sync cluster ~client ~proxy:p1 (req ()) in
  Alcotest.(check string) "offloaded execution serves" "<html>edge</html>" (body resp);
  Alcotest.(check int) "one offload to nk2" 1
    (Core.Telemetry.Metrics.counter (Node.metrics p1)
       ~labels:[ ("target", "nk2.nakika.net") ]
       "diffusion.offloads");
  (* Now aim a request into the crash window: sent at +10.05 the
     envelope cannot be delivered (host down), the sender times out at
     +10.35 and falls back, and the bus retry hands the stale envelope
     to nk2's next incarnation after +10.6. *)
  Core.Sim.Sim.run ~until:(epoch +. 10.05) sim;
  plant ~incarnation:0;
  let late = ref None in
  Cluster.fetch cluster ~client ~proxy:p1 (req ()) (fun r -> late := Some r);
  Cluster.run cluster;
  (match !late with
   | Some r ->
     Alcotest.(check int) "request survived the crash (served locally)" 200
       r.Message.status
   | None -> Alcotest.fail "request lost in the crash");
  Alcotest.(check bool) "sender fell back on timeout" true
    (Core.Telemetry.Metrics.counter (Node.metrics p1) ~labels:[ ("reason", "timeout") ]
       "diffusion.fallbacks"
    >= 1);
  (* The bus retries (daemon events with exponential backoff) still hold
     the undeliverable envelope; drive the clock far enough for them to
     hand it to nk2's next incarnation and for the refusal to bounce
     back to p1, where the pending entry is long gone. *)
  Core.Sim.Sim.run ~until:(epoch +. 60.0) (Cluster.sim cluster);
  Alcotest.(check bool) "restarted target refused its dead self's work" true
    (Core.Telemetry.Metrics.counter (Node.metrics p2)
       ~labels:[ ("reason", "incarnation") ]
       "diffusion.rejects"
    >= 1);
  Alcotest.(check bool) "the late refusal was discarded as stale" true
    (Core.Telemetry.Metrics.counter (Node.metrics p1) "diffusion.stale_replies" >= 1);
  (* Determinism: the whole scenario is seeded; re-running it reproduces
     the same counters (the property the chaos matrix relies on). *)
  Alcotest.(check bool) "no offload was double-executed" true
    (Core.Telemetry.Metrics.counter (Node.metrics p1)
       ~labels:[ ("target", "nk2.nakika.net") ]
       "diffusion.offloads"
    = 1)

(* --- receiver-side deadline shed on the offload path ------------------- *)

let test_offload_sheds_expired_deadline () =
  (* A request whose carried budget cannot even survive the bus hop to
     the offload target: the receiver must shed it on arrival (its
     answer would land after the client stopped waiting), the sender
     falls back, and the client is still served. *)
  let cluster = Cluster.create () in
  ignore (transforming_site cluster);
  let p1 = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config:diffusion_config () in
  let p2 = Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config:diffusion_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  (* Warm-up: local execution learns the script hash, making the next
     request offloadable. *)
  ignore (fetch_sync cluster ~client ~proxy:p1 (req ()));
  (* The deadline header is relative (remaining seconds), so transit
     time alone cannot expire it: the receiver rebuilds the budget on
     arrival. What kills a doomed offload is the receiver's own queue
     delay, so load nk2 with 2s of CPU backlog, then plant it as an
     attractive neighbor and fire a 10ms-budget request — all inside
     one scheduled event so nk2's next health report cannot overwrite
     the planted pressure before p1 decides to offload. *)
  let sim = Cluster.sim cluster in
  let t0 = Core.Sim.Sim.now sim in
  let result = ref None in
  Core.Sim.Sim.schedule_at sim (t0 +. 0.5) (fun () ->
    Core.Sim.Net.cpu_run (Cluster.net cluster) (Node.host p2) ~seconds:2.0 (fun () -> ());
    plant cluster p2 ~incarnation:0;
    let r = req () in
    Message.set_req_header r Core.Resource.Deadline.header "0.01";
    Cluster.fetch cluster ~client ~proxy:p1 r (fun resp -> result := Some resp));
  Core.Sim.Sim.run ~until:(t0 +. 30.0) (Cluster.sim cluster);
  (match !result with
   | None -> Alcotest.fail "request lost"
   | Some resp ->
     Alcotest.(check bool) "client still answered" true (resp.Message.status > 0));
  Alcotest.(check bool) "receiver shed the doomed offload" true
    (Core.Telemetry.Metrics.counter (Node.metrics p2)
       ~labels:[ ("at", "offload") ]
       "deadline.expired"
    >= 1);
  Alcotest.(check bool) "shed is a machine-readable reject" true
    (Core.Telemetry.Metrics.counter (Node.metrics p2)
       ~labels:[ ("reason", "deadline-queue") ]
       "diffusion.rejects"
    >= 1);
  Alcotest.(check bool) "sender fell back and served locally" true
    (Core.Telemetry.Metrics.counter (Node.metrics p1) ~labels:[ ("reason", "rejected") ]
       "diffusion.fallbacks"
    >= 1)

(* --- candidates: the report-table reader against a reference model ---- *)

(* The model keeps its own table of the reports, applying the
   incarnation guard itself, and computes the candidate list from the
   rules written out: another reporter, one that carries a pressure,
   no older than [staleness], within twice the nearest such distance
   plus 0.1 ms, ordered by (pressure, name), the first [fanout]. *)
let reference_candidates net table ~self ~now ~staleness ~fanout =
  let fresh =
    List.filter_map
      (fun (name, (host, incarnation, pressure, reported_at)) ->
        match pressure with
        | Some pressure when name <> Core.Sim.Net.host_name self && now -. reported_at <= staleness
          ->
          let distance =
            Core.Sim.Net.transfer_time_estimate net ~src:self ~dst:host ~size:1024
          in
          Some (name, incarnation, pressure, distance)
        | _ -> None)
      table
  in
  let nearest = List.fold_left (fun acc (_, _, _, d) -> Float.min acc d) infinity fresh in
  List.filter (fun (_, _, _, d) -> d <= (nearest *. 2.0) +. 1e-4) fresh
  |> List.sort (fun (n1, _, p1, _) (n2, _, p2, _) -> compare (p1, n1) (p2, n2))
  |> List.filteri (fun i _ -> i < max 1 fanout)

let candidates_match_reference_prop =
  QCheck.Test.make ~name:"candidates: the report-table reader equals a reference model"
    ~count:300 QCheck.int
    (fun seed ->
      let rng = Core.Util.Prng.create seed in
      let chance n = Core.Util.Prng.int rng n = 0 in
      let sim = Core.Sim.Sim.create () in
      let net = Core.Sim.Net.create sim ~default_latency:0.005 ~default_bandwidth:12_500_000.0 () in
      let red = Core.Overlay.Redirector.create net in
      let hosts =
        Array.init
          (1 + Core.Util.Prng.int rng 8)
          (fun i -> Core.Sim.Net.add_host net ~name:(Printf.sprintf "nk%d" i) ())
      in
      let self = Core.Util.Prng.pick rng hosts in
      (* Explicit links around the default estimate, some tying it. *)
      let links = [| (0.0005, 12_500_000.0); (0.005, 12_500_000.0); (0.002, 1e7); (0.05, 1e7) |] in
      Array.iter
        (fun h ->
          if chance 2 then begin
            let latency, bandwidth = Core.Util.Prng.pick rng links in
            Core.Sim.Net.connect net self h ~latency ~bandwidth
          end)
        hosts;
      (* Reports from every host, the decider's own included, over a
         stretch of simulated time; a quarter run no diffusion, and
         pressures come from a few values so that names break ties. *)
      let table = ref [] in
      for _ = 1 to Core.Util.Prng.int rng 30 do
        Core.Sim.Sim.run ~until:(Core.Sim.Sim.now sim +. Core.Util.Prng.float rng 2.0) sim;
        let host = Core.Util.Prng.pick rng hosts in
        let name = Core.Sim.Net.host_name host in
        let incarnation = Core.Util.Prng.int rng 3 in
        let pressure =
          if chance 4 then None else Some (float_of_int (Core.Util.Prng.int rng 5) /. 4.0)
        in
        Core.Overlay.Redirector.report red host ~incarnation ?pressure
          ~queue_delay:(Core.Util.Prng.float rng 1.0) ~shed_rate:0.0 ();
        match List.assoc_opt name !table with
        | Some (_, prev, _, _) when incarnation < prev -> ()
        | _ ->
          table :=
            (name, (host, incarnation, pressure, Core.Sim.Sim.now sim))
            :: List.remove_assoc name !table
      done;
      let now = Core.Sim.Sim.now sim +. Core.Util.Prng.float rng 3.0 in
      List.for_all
        (fun staleness ->
          let fanout = Core.Util.Prng.int rng 5 in
          let mine =
            Policy.candidates red ~self ~now ~staleness ~fanout
            |> List.map (fun (c : Policy.candidate) ->
                   (c.Policy.name, c.Policy.incarnation, c.Policy.pressure, c.Policy.distance))
          in
          mine = reference_candidates net !table ~self ~now ~staleness ~fanout)
        [ 0.5; 1.0; 3.0; 1000.0 ])

let suite =
  [
    QCheck_alcotest.to_alcotest pressure_monotone_prop;
    Alcotest.test_case "pressure: proactive 0.5 crossing at the admission target" `Quick
      test_pressure_crossing;
    Alcotest.test_case "offload round trip: remote = local, fuel/heap identical" `Quick
      test_offload_round_trip_equivalence;
    Alcotest.test_case "fallback: timeouts trip the breaker, nothing is lost" `Quick
      test_fallback_on_breaker_open;
    Alcotest.test_case "hash miss: receiver fetches the script from the origin" `Quick
      test_hash_miss_fetches_script;
    Alcotest.test_case "chaos: crash mid-offload, incarnation guard holds" `Quick
      test_chaos_crash_during_offload;
    Alcotest.test_case "deadline: receiver sheds a doomed offload, sender recovers" `Quick
      test_offload_sheds_expired_deadline;
    QCheck_alcotest.to_alcotest candidates_match_reference_prop;
  ]
