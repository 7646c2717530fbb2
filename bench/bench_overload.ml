(* Overload resilience: the flash-crowd acceptance scenario
   (Workload.Chaos) as an experiment. The 3-node topology and workload
   run twice — once fault-free and once with one proxy crashing
   mid-crowd (it restarts) and one origin dead for the rest of the run
   — and the report checks that goodput stays at >= 70% of the
   baseline with a bounded p99. The degraded run composes every
   overload defense: admission control sheds the spike's excess, the
   redirector routes around the crashed node, the dead origin's circuit
   breaker fails fast (bounding how many requests ever reach it), and
   stale-if-error keeps serving its content. BENCH_overload.json
   records both runs' goodput, the p99s, and the defense counters
   (admission.sheds, breaker.opens, cache.stale_served,
   quarantine.bans).

   CI reruns this under NAKIKA_CHAOS_SEED 1-3; the seed perturbs the
   cluster PRNG (redirection spread, workload jitter), not the fault
   schedule, which stays fixed so the two runs are comparable. *)

module Chaos = Core.Workload.Chaos
module Metrics = Core.Telemetry.Metrics

let run_scenario ~attach plan =
  let run =
    Chaos.run_overload ~seed:(Harness.seed_base + Core.Faults.Plan.seed plan) plan
  in
  if attach then Harness.attach_run run.Chaos.cluster run.Chaos.proxies;
  (* The run's summary, and how often the fragile origin was contacted. *)
  ( Harness.summarize ~issued:run.Chaos.issued run.Chaos.answers,
    Core.Node.Origin.request_count (List.nth run.Chaos.origins 1) )

let overload () =
  Harness.header "Overload resilience (flash crowd + crash + dead origin)";
  let baseline, baseline_dead_hits = run_scenario ~attach:false (Chaos.overload_baseline ()) in
  let degraded, dead_origin_hits = run_scenario ~attach:true (Chaos.overload_degraded ()) in
  let goodput = Harness.goodput in
  let ratio = goodput degraded /. Float.max 1e-9 (goodput baseline) in
  let report label (o : Harness.summary) =
    Printf.printf "  %-28s %3d issued  %3d ok  %3d shed  %3d errors  p99 %6.3fs  (%.0f%% goodput)\n"
      label o.issued o.ok o.shed o.errors o.p99 (100.0 *. goodput o)
  in
  report "fault-free baseline:" baseline;
  report "crash + dead origin:" degraded;
  Printf.printf "  dead-origin fetches: baseline %d, degraded %d (breaker-bounded)\n"
    baseline_dead_hits dead_origin_hits;
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
    Metrics.set_gauge m "overload.dead-origin-hits" (float_of_int dead_origin_hits)
