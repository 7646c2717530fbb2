(* Proactive computation diffusion (C3PO over the health plane): the
   pressure signal, the offload protocol end to end over the message
   bus, fallback safety under crashed targets, the hash-miss script
   fetch path, and the incarnation guards under chaos. *)

open Core.Node
open Core.Http
module Offload = Core.Diffusion.Offload
module Pressure = Core.Diffusion.Pressure
module Bus = Core.Replication.Message_bus

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
          (* Offload on any pressure at all, and trust planted/gossiped
             neighbor entries for a long time: the tests drive the decision
             deterministically instead of waiting for a real flash crowd. *)
          low_water = 0.0;
          staleness = 1000.0;
          offload_timeout = 0.3;
        };
  }

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
  ignore (Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config:diffusion_config ());
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  (* Warm-up: the first request executes locally (hash not yet known)
     and caches the site stage, making later requests offloadable. *)
  Alcotest.(check string) "warm-up served" "<html>edge</html>"
    (body (fetch_sync cluster ~client ~proxy:p1 (req ())));
  (* Plant nk2 as an irresistibly idle neighbor (pressure below
     anything nk1 can report), incarnation-stamped like gossip would. *)
  let plant () =
    Node.observe_neighbor p1 ~name:"nk2.nakika.net" ~pressure:(-1.0) ~incarnation:1
      ~distance:0.01
  in
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
  let plant ~incarnation =
    Node.observe_neighbor p1 ~name:"nk2.nakika.net" ~pressure:(-1.0) ~incarnation
      ~distance:0.01
  in
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
    Node.observe_neighbor p1 ~name:"nk2.nakika.net" ~pressure:(-1.0) ~incarnation:0
      ~distance:0.01;
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
  ]
