(* Fault tolerance: the chaos acceptance scenario (Workload.Chaos) as
   an experiment. The 4-node topology and 30-request workload run
   twice — once fault-free and once under 10% uniform message drops
   plus a 15 s partition that heals — and the report checks that no
   request hangs (every fetch resolves, possibly with a synthesized
   504) and that the degraded run keeps at least 80% of the baseline's
   successes. BENCH_faults.json records both success rates next to the
   degraded run's fault-layer counters (net.dropped, bus.retries,
   bus.dead_letters, node.crashes, dht.fallbacks, cache.stale_served). *)

module Chaos = Core.Workload.Chaos
module Metrics = Core.Telemetry.Metrics

(* Only the [attach]ed run's registries land in the experiment dump, so
   baseline and degraded counters do not mix. *)
let run_scenario ~attach plan =
  let run = Chaos.run_chaos ~seed:(Core.Faults.Plan.seed plan) plan in
  if attach then begin
    List.iter Harness.attach_node run.Chaos.proxies;
    Option.iter (fun into -> Chaos.merge_fault_telemetry ~into run) (Harness.registry ())
  end;
  let ok =
    List.length
      (List.filter
         (fun (a : Core.Workload.Driver.answer) ->
           Core.Http.Status.is_success a.response.Core.Http.Message.status)
         run.Chaos.answers)
  in
  (run.Chaos.issued, List.length run.Chaos.answers, ok)

let rate ok issued = 100.0 *. float_of_int ok /. float_of_int (max 1 issued)

let faults () =
  Harness.header "Fault tolerance (chaos acceptance scenario)";
  let b_issued, b_answered, b_ok = run_scenario ~attach:false (Chaos.chaos_baseline ()) in
  let d_issued, d_answered, d_ok = run_scenario ~attach:true (Chaos.chaos_degraded ()) in
  let hung = b_issued - b_answered + (d_issued - d_answered) in
  let ratio = float_of_int d_ok /. float_of_int (max 1 b_ok) in
  Printf.printf "  %-34s %3d issued  %3d answered  %3d ok  (%.0f%% success)\n"
    "fault-free baseline:" b_issued b_answered b_ok (rate b_ok b_issued);
  Printf.printf "  %-34s %3d issued  %3d answered  %3d ok  (%.0f%% success)\n"
    "10% drops + healed partition:" d_issued d_answered d_ok (rate d_ok d_issued);
  Printf.printf "  hung requests: %d   degraded/baseline success ratio: %.2f %s\n" hung
    ratio
    (if hung = 0 && ratio >= 0.8 then "(>= 0.80: pass)" else "(BELOW TARGET)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "faults.baseline-success-rate" (rate b_ok b_issued);
    Metrics.set_gauge m "faults.degraded-success-rate" (rate d_ok d_issued);
    Metrics.set_gauge m "faults.success-ratio" ratio;
    Metrics.set_gauge m "faults.hung-requests" (float_of_int hung)
