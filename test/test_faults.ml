(* Deterministic fault injection: the chaos suite. A seeded
   [Nk_faults.Plan] makes links drop, hosts crash and partitions form,
   and these tests check the stack degrades instead of wedging: every
   client request resolves (response or explicit failure), the same
   seed reproduces the same schedule and telemetry, and crashed hosts
   never fire callbacks captured before the crash. CI runs this suite
   under several NAKIKA_CHAOS_SEED values. *)

open Core.Node
open Core.Http
module Plan = Core.Faults.Plan
module Sim = Core.Sim.Sim
module Net = Core.Sim.Net
module Metrics = Core.Telemetry.Metrics
module Chaos = Core.Workload.Chaos
module Driver = Core.Workload.Driver

(* CI reruns the chaos soak under a few fixed seeds via this variable;
   locally it defaults to 0. *)
let seed_base =
  match int_of_string_opt (try Sys.getenv "NAKIKA_CHAOS_SEED" with Not_found -> "0") with
  | Some n -> n * 1_000_003
  | None -> 0

(* A random-but-reproducible fault schedule within the soak envelope:
   drops <= 30%, at most 2 partitions that always heal, at most one
   crash/restart per proxy. *)
let random_plan seed = Chaos.random_plan (seed_base + seed)

(* The chaos scenario (a script-free workload: no nakika.js, so no
   process-global script caches can perturb the telemetry snapshot)
   under the given plan. Returns (issued, answered, ok, statuses in
   answer order, fault-layer telemetry, upstream tickets left unsettled
   across the proxies once the run is quiet). *)
let run_chaos plan =
  let run = Chaos.run_chaos ~seed:(Plan.seed plan) plan in
  let statuses =
    String.concat ""
      (List.map (fun a -> string_of_int a.Driver.response.Message.status ^ " ") run.Chaos.answers)
  in
  let m = Metrics.create () in
  Chaos.merge_fault_telemetry ~into:m run;
  let unsettled =
    List.fold_left
      (fun n p -> n + Core.Resource.Upstream.outstanding (Node.upstream p))
      0 run.Chaos.proxies
  in
  ( run.Chaos.issued,
    List.length run.Chaos.answers,
    List.length
      (List.filter (fun a -> Status.is_success a.Driver.response.Message.status) run.Chaos.answers),
    statuses,
    Metrics.to_json_lines m,
    unsettled )

(* --- the qcheck soak ------------------------------------------------ *)

let chaos_soak_prop =
  QCheck.Test.make ~name:"chaos soak: no hung requests under random schedules"
    ~count:200 QCheck.small_nat (fun seed ->
      let issued, answered, _ok, _statuses, _telemetry, unsettled =
        run_chaos (random_plan seed)
      in
      (* Once quiet, every admitted upstream call has been accounted:
         no half-open probe slot is left claimed. *)
      issued = 30 && answered = issued && unsettled = 0)

let test_chaos_determinism () =
  (* Same seed => identical fault schedule, identical responses in
     identical order, bit-identical fault-layer telemetry. *)
  let seed = 1234 in
  let run () = run_chaos (random_plan seed) in
  let i1, a1, ok1, s1, t1, _ = run () in
  let i2, a2, ok2, s2, t2, _ = run () in
  Alcotest.(check int) "issued" i1 i2;
  Alcotest.(check int) "answered" a1 a2;
  Alcotest.(check int) "ok" ok1 ok2;
  Alcotest.(check string) "status stream" s1 s2;
  Alcotest.(check string) "telemetry snapshot" t1 t2

let test_different_seeds_differ () =
  (* Not a hard guarantee for any pair, but these two differ — guards
     against the plan ignoring its seed entirely. *)
  let _, _, _, s1, t1, _ = run_chaos (random_plan 1) in
  let _, _, _, s2, t2, _ = run_chaos (random_plan 2) in
  Alcotest.(check bool) "schedules differ" true (s1 <> s2 || t1 <> t2)

(* --- plan unit behaviour -------------------------------------------- *)

let test_plan_partition_window () =
  let plan = Plan.create () in
  Plan.partition plan ~a:[ "x" ] ~b:[ "y" ] ~at:10.0 ~heal:20.0;
  let fate now = Plan.link_fate plan ~now ~src:"x" ~dst:"y" in
  Alcotest.(check bool) "before" true (fate 5.0 = `Deliver 0.0);
  Alcotest.(check bool) "during" true (fate 15.0 = `Drop);
  Alcotest.(check bool) "reverse direction too" true
    (Plan.link_fate plan ~now:15.0 ~src:"y" ~dst:"x" = `Drop);
  Alcotest.(check bool) "unrelated pair" true
    (Plan.link_fate plan ~now:15.0 ~src:"x" ~dst:"z" = `Deliver 0.0);
  Alcotest.(check bool) "healed" true (fate 20.0 = `Deliver 0.0)

let test_plan_crash_incarnations () =
  let plan = Plan.create () in
  Plan.crash plan ~host:"h" ~at:10.0 ~restart:20.0 ();
  Alcotest.(check bool) "up before" false (Plan.is_down plan ~now:9.9 "h");
  Alcotest.(check bool) "down during" true (Plan.is_down plan ~now:10.0 "h");
  Alcotest.(check bool) "up after restart" false (Plan.is_down plan ~now:20.0 "h");
  Alcotest.(check int) "incarnation before" 0 (Plan.incarnation plan ~now:9.9 "h");
  Alcotest.(check int) "incarnation after" 1 (Plan.incarnation plan ~now:25.0 "h");
  Alcotest.(check (option (float 0.001))) "restart time" (Some 20.0)
    (Plan.restart_time plan ~now:12.0 "h")

let test_plan_drop_rate_and_determinism () =
  let sample seed =
    let plan = Plan.create ~seed () in
    Plan.drop_link plan ~probability:0.3 ();
    List.init 1000 (fun i ->
        Plan.link_fate plan ~now:(float_of_int i) ~src:"a" ~dst:"b" = `Drop)
  in
  let drops l = List.length (List.filter Fun.id l) in
  let one = sample 9 in
  Alcotest.(check bool) "rate near 30%" true (drops one > 230 && drops one < 370);
  Alcotest.(check bool) "same seed, same fates" true (one = sample 9);
  Alcotest.(check bool) "different seed, different fates" true (one <> sample 10)

let test_plan_origin_windows () =
  let plan = Plan.create () in
  Plan.fail_origin plan ~host:"o" ~at:5.0 ~until:10.0;
  Plan.slow_origin plan ~host:"o" ~at:20.0 ~until:30.0 ~factor:4.0;
  Alcotest.(check bool) "ok outside" true (Plan.origin_state plan ~now:1.0 ~host:"o" = `Ok);
  Alcotest.(check bool) "failing" true (Plan.origin_state plan ~now:6.0 ~host:"o" = `Fail);
  Alcotest.(check bool) "slow" true (Plan.origin_state plan ~now:25.0 ~host:"o" = `Slow 4.0);
  Alcotest.(check bool) "other host untouched" true
    (Plan.origin_state plan ~now:6.0 ~host:"p" = `Ok)

(* --- the latent bug: crashed hosts must not fire captured callbacks --- *)

let test_crash_during_transfer () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let t0 = Sim.now sim in
  let plan = Plan.create () in
  (* b crashes while the message is on the wire and restarts *before*
     delivery time: the callback belongs to b's dead incarnation and
     must not fire after the restart. *)
  Plan.crash plan ~host:"b" ~at:(t0 +. 0.5) ~restart:(t0 +. 0.9) ();
  Net.set_faults net plan;
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  Net.connect net a b ~latency:1.0 ~bandwidth:1e9;
  let fired = ref false in
  Net.send net ~src:a ~dst:b ~size:100 (fun () -> fired := true);
  Sim.run ~until:(t0 +. 5.0) sim;
  Alcotest.(check bool) "pre-crash callback suppressed" false !fired;
  Alcotest.(check int) "suppression counted" 1
    (Metrics.counter (Net.metrics net) "net.lost-callbacks");
  Alcotest.(check int) "crash counted" 1 (Metrics.counter (Net.metrics net) "node.crashes");
  (* A message sent after the restart reaches the new incarnation. *)
  let fired2 = ref false in
  Net.send net ~src:a ~dst:b ~size:100 (fun () -> fired2 := true);
  Sim.run ~until:(t0 +. 10.0) sim;
  Alcotest.(check bool) "post-restart delivery works" true !fired2

let test_crash_clears_cpu_queue () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let t0 = Sim.now sim in
  let plan = Plan.create () in
  Plan.crash plan ~host:"h" ~at:(t0 +. 1.0) ~restart:(t0 +. 2.0) ();
  Net.set_faults net plan;
  let h = Net.add_host net ~name:"h" () in
  let done_ = ref false in
  (* 5 s of queued work; the crash at +1 s wipes the queue and the
     completion callback with it. *)
  Net.cpu_run net h ~seconds:5.0 (fun () -> done_ := true);
  Sim.run ~until:(t0 +. 1.5) sim;
  Alcotest.(check (float 0.001)) "backlog cleared by crash" 0.0 (Net.cpu_backlog net h);
  Sim.run ~until:(t0 +. 10.0) sim;
  Alcotest.(check bool) "queued work's callback lost" false !done_;
  (* New work after restart completes normally. *)
  let done2 = ref false in
  Net.cpu_run net h ~seconds:0.5 (fun () -> done2 := true);
  Sim.run ~until:(t0 +. 11.0) sim;
  Alcotest.(check bool) "post-restart work runs" true !done2

let test_dropped_send_counts () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let plan = Plan.create () in
  Plan.drop_link plan ~src:"a" ~dst:"b" ~probability:1.0 ();
  Net.set_faults net plan;
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let fired = ref false in
  Net.send net ~src:a ~dst:b ~size:10 (fun () -> fired := true);
  Sim.run sim;
  Alcotest.(check bool) "dropped" false !fired;
  Alcotest.(check int) "counted" 1 (Metrics.counter (Net.metrics net) "net.dropped")

(* --- the acceptance scenario: 10% drops + one healed partition ------- *)

let test_degraded_run_keeps_most_successes () =
  let run plan =
    let issued, answered, ok, _, _, _ = run_chaos plan in
    Alcotest.(check int) "all issued" 30 issued;
    Alcotest.(check int) "no hung requests" issued answered;
    ok
  in
  let baseline = run (Chaos.chaos_baseline ()) in
  let degraded = run (Chaos.chaos_degraded ()) in
  Alcotest.(check bool)
    (Printf.sprintf "degraded %d/30 within 80%% of baseline %d/30" degraded baseline)
    true
    (float_of_int degraded >= 0.8 *. float_of_int baseline)

(* --- overload acceptance: flash crowd + crash + dead origin ---------- *)

(* The overload scenario as a pass/fail test: a 600-request flash
   crowd on one hot page plus a 30-request stream to a fragile origin,
   run fault-free and then with one proxy crashing mid-crowd
   (restarting 15 s later) and the fragile origin dead for the rest of
   the run. The overload defenses (admission control, health-aware
   redirection, circuit breakers, stale-if-error) must keep goodput at
   >= 70% of baseline, answer every request, mark every shed with
   Retry-After, and bound how often the dead origin is actually
   contacted. *)
let run_overload plan =
  let run = Chaos.run_overload ~seed:(seed_base + Plan.seed plan) plan in
  (* On the hot page the origin stays healthy, so every 503 there is
     node-generated (admission shed, quarantine, breaker) and must
     carry Retry-After. The dead origin's own 503s pass through
     verbatim until its breaker trips — those are exempt. *)
  let sheds_without_retry_after =
    List.length
      (List.filter
         (fun a ->
           a.Driver.url = "http://www.example.edu/hot.html"
           && a.Driver.response.Message.status = 503
           && Message.resp_header a.Driver.response "Retry-After" = None)
         run.Chaos.answers)
  in
  let proxies = run.Chaos.proxies in
  let open_breakers = List.map (fun p -> (Node.health p).Node.open_breakers) proxies in
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "health lists the upstream breakers"
        (Core.Resource.Upstream.open_breakers (Node.upstream p))
        (Node.health p).Node.open_breakers)
    proxies;
  ( run.Chaos.issued,
    List.length run.Chaos.answers,
    List.length
      (List.filter (fun a -> a.Driver.response.Message.status = 200) run.Chaos.answers),
    sheds_without_retry_after,
    Origin.request_count (List.nth run.Chaos.origins 1),
    List.concat open_breakers )

let test_overload_acceptance () =
  let issued, answered, baseline_ok, _, _, _ = run_overload (Chaos.overload_baseline ()) in
  Alcotest.(check int) "baseline: all issued" 630 issued;
  Alcotest.(check int) "baseline: no hung requests" issued answered;
  let issued, answered, ok, bare_503s, dead_hits, open_breakers =
    run_overload (Chaos.overload_degraded ())
  in
  Alcotest.(check int) "degraded: all issued" 630 issued;
  Alcotest.(check int) "degraded: no hung requests" issued answered;
  Alcotest.(check int) "degraded: every shed carries Retry-After" 0 bare_503s;
  Alcotest.(check bool)
    (Printf.sprintf "goodput %d/630 within 70%% of baseline %d/630" ok baseline_ok)
    true
    (float_of_int ok >= 0.7 *. float_of_int baseline_ok);
  (* 30 requests target the dead origin; the circuit breaker fails fast
     after the first few, so only the initial failures plus occasional
     half-open probes ever reach the wire. *)
  Alcotest.(check bool)
    (Printf.sprintf "dead-origin fetches bounded by the breaker (%d)" dead_hits)
    true (dead_hits <= 15);
  (* No request reaches the dead origin after the last one at +30 s,
     so its breaker is still open at the end and health says so. *)
  Alcotest.(check bool) "dead origin's breaker reported open" true
    (List.mem "origin:dead.example.org" open_breakers)

let suite =
  [
    Alcotest.test_case "plan: partition window" `Quick test_plan_partition_window;
    Alcotest.test_case "plan: crash incarnations" `Quick test_plan_crash_incarnations;
    Alcotest.test_case "plan: drop rate and replayability" `Quick
      test_plan_drop_rate_and_determinism;
    Alcotest.test_case "plan: origin fail/slow windows" `Quick test_plan_origin_windows;
    Alcotest.test_case "net: crash during transfer suppresses callback" `Quick
      test_crash_during_transfer;
    Alcotest.test_case "net: crash clears the CPU queue" `Quick test_crash_clears_cpu_queue;
    Alcotest.test_case "net: drops are counted, not delivered" `Quick
      test_dropped_send_counts;
    Alcotest.test_case "chaos: same seed, same telemetry" `Quick test_chaos_determinism;
    Alcotest.test_case "chaos: seeds actually vary the schedule" `Quick
      test_different_seeds_differ;
    Alcotest.test_case "chaos: 10% drops + healed partition keeps 80% success" `Quick
      test_degraded_run_keeps_most_successes;
    Alcotest.test_case "overload: flash crowd + crash + dead origin keeps 70% goodput"
      `Quick test_overload_acceptance;
    QCheck_alcotest.to_alcotest chaos_soak_prop;
  ]
