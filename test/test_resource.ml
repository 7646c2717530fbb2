(* Congestion-based resource control (Fig. 6): accounting semantics,
   throttling proportional to contribution, top-offender termination. *)

open Core.Resource

(* Fig. 6's UPDATE over every resource, as the monitor runs it one
   resource at a time. *)
let close_interval a ~congested =
  List.iter
    (fun r -> Accounting.close_resource_interval a r ~congested:(congested r))
    Resource.all

(* The throttle shares CONTROL hands out when [resource] is congested:
   each active site's fraction of the summed usage. *)
let shares a resource =
  let monitor =
    Monitor.create ~accounting:a
      ~is_congested:(fun ~final:_ _ -> true)
      ~throttle:(fun ~site:_ ~fraction:_ ~resource:_ -> ())
      ~unthrottle:(fun _ -> ())
      ~terminate:(fun ~site:_ -> ())
      ~events:(Core.Telemetry.Events.create ~clock:(fun () -> 0.0))
      ~metrics:(Core.Telemetry.Metrics.create ())
  in
  match Monitor.begin_control monitor resource with
  | `Congested fractions -> fractions
  | `Clear -> Alcotest.fail "expected congestion"

let test_renewable_classification () =
  Alcotest.(check bool) "cpu" true (Resource.is_renewable Resource.Cpu);
  Alcotest.(check bool) "memory" true (Resource.is_renewable Resource.Memory);
  Alcotest.(check bool) "bandwidth" true (Resource.is_renewable Resource.Bandwidth);
  Alcotest.(check bool) "running time" false (Resource.is_renewable Resource.Running_time);
  Alcotest.(check bool) "bytes" false (Resource.is_renewable Resource.Bytes_transferred)

let test_charge_accumulates () =
  (* The interval's sum is what the first fold takes as the average. *)
  let a = Accounting.create () in
  Accounting.charge a ~site:"s" Resource.Cpu 1.0;
  Accounting.charge a ~site:"s" Resource.Cpu 2.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  Alcotest.(check (float 1e-9)) "interval sum" 3.0 (Accounting.usage a ~site:"s" Resource.Cpu)

let test_renewable_only_counts_under_congestion () =
  let a = Accounting.create () in
  Accounting.charge a ~site:"s" Resource.Cpu 5.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:false;
  Alcotest.(check (float 1e-9)) "uncongested renewable discarded" 0.0
    (Accounting.usage a ~site:"s" Resource.Cpu);
  Accounting.charge a ~site:"s" Resource.Cpu 5.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  Alcotest.(check (float 1e-9)) "congested renewable counted" (0.3 *. 5.0)
    (Accounting.usage a ~site:"s" Resource.Cpu)

let test_nonrenewable_always_counts () =
  let a = Accounting.create () in
  Accounting.charge a ~site:"s" Resource.Running_time 2.0;
  Accounting.close_resource_interval a Resource.Running_time ~congested:false;
  Alcotest.(check (float 1e-9)) "counted without congestion" 2.0
    (Accounting.usage a ~site:"s" Resource.Running_time)

let test_interval_resets () =
  (* The second fold sees an empty interval, not the first one's 5. *)
  let a = Accounting.create () in
  Accounting.charge a ~site:"s" Resource.Cpu 5.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  Alcotest.(check (float 1e-9)) "reset" (0.7 *. 5.0) (Accounting.usage a ~site:"s" Resource.Cpu)

let test_usage_is_weighted_average () =
  let a = Accounting.create () in
  Accounting.charge a ~site:"s" Resource.Cpu 10.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  Accounting.charge a ~site:"s" Resource.Cpu 20.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  Alcotest.(check (float 1e-9)) "ewma" ((0.3 *. 20.0) +. (0.7 *. 10.0))
    (Accounting.usage a ~site:"s" Resource.Cpu)

let test_penalization_decays () =
  (* §3.2: "allowing scripts to ... recover from past penalization". *)
  let a = Accounting.create () in
  Accounting.charge a ~site:"s" Resource.Cpu 100.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:true;
  for _ = 1 to 20 do
    Accounting.close_resource_interval a Resource.Cpu ~congested:false
  done;
  Alcotest.(check bool) "decayed" true (Accounting.usage a ~site:"s" Resource.Cpu < 0.2)

let test_contribution_shares () =
  let a = Accounting.create () in
  Accounting.charge a ~site:"big" Resource.Cpu 9.0;
  Accounting.charge a ~site:"small" Resource.Cpu 1.0;
  let fractions = shares a Resource.Cpu in
  Alcotest.(check (float 1e-9)) "big share" 0.9 (List.assoc "big" fractions);
  Alcotest.(check (float 1e-9)) "small share" 0.1 (List.assoc "small" fractions);
  Alcotest.(check bool) "unknown site" false (List.mem_assoc "nobody" fractions)

let test_active_sites_sorted () =
  let a = Accounting.create () in
  Accounting.charge a ~site:"b" Resource.Cpu 1.0;
  Accounting.charge a ~site:"a" Resource.Cpu 1.0;
  Alcotest.(check (list string)) "sorted" [ "a"; "b" ] (Accounting.active_sites a)

(* --- the CONTROL algorithm -------------------------------------------- *)

type harness = {
  accounting : Accounting.t;
  monitor : Monitor.t;
  congested : (Resource.t, bool) Hashtbl.t;
  throttled : (string * float) list ref;
  unthrottled : int ref;
  killed : string list ref;
  metrics : Core.Telemetry.Metrics.t;
}

let make_harness () =
  let accounting = Accounting.create () in
  let congested = Hashtbl.create 4 in
  let throttled = ref [] in
  let unthrottled = ref 0 in
  let killed = ref [] in
  let metrics = Core.Telemetry.Metrics.create () in
  let monitor =
    Monitor.create ~accounting
      ~is_congested:(fun ~final:_ r -> Option.value (Hashtbl.find_opt congested r) ~default:false)
      ~throttle:(fun ~site ~fraction ~resource:_ -> throttled := (site, fraction) :: !throttled)
      ~unthrottle:(fun _ -> incr unthrottled)
      ~terminate:(fun ~site -> killed := site :: !killed)
      ~events:(Core.Telemetry.Events.create ~clock:(fun () -> 0.0)) ~metrics
  in
  { accounting; monitor; congested; throttled; unthrottled; killed; metrics }

let test_control_idle_when_clear () =
  let h = make_harness () in
  Accounting.charge h.accounting ~site:"s" Resource.Cpu 100.0;
  Alcotest.(check bool) "clear" true (Monitor.begin_control h.monitor Resource.Cpu = `Clear);
  Alcotest.(check bool) "no throttles" true (!(h.throttled) = []);
  Alcotest.(check bool) "unthrottled at finish" true
    (Monitor.finish_control h.monitor Resource.Cpu = `Unthrottled);
  Alcotest.(check bool) "nobody killed" true (!(h.killed) = [])

let test_control_throttles_proportionally () =
  let h = make_harness () in
  Accounting.charge h.accounting ~site:"hog" Resource.Cpu 3.0;
  Accounting.charge h.accounting ~site:"meek" Resource.Cpu 1.0;
  Hashtbl.replace h.congested Resource.Cpu true;
  (match Monitor.begin_control h.monitor Resource.Cpu with
   | `Congested fractions ->
     Alcotest.(check (float 1e-9)) "hog fraction" 0.75 (List.assoc "hog" fractions);
     Alcotest.(check (float 1e-9)) "meek fraction" 0.25 (List.assoc "meek" fractions)
   | `Clear -> Alcotest.fail "expected congestion");
  Alcotest.(check int) "both throttled" 2 (List.length !(h.throttled))

let test_control_kills_top_offender_if_congestion_persists () =
  let h = make_harness () in
  Accounting.charge h.accounting ~site:"hog" Resource.Cpu 9.0;
  Accounting.charge h.accounting ~site:"meek" Resource.Cpu 1.0;
  Hashtbl.replace h.congested Resource.Cpu true;
  ignore (Monitor.begin_control h.monitor Resource.Cpu);
  (* congestion persists through the timeout *)
  (match Monitor.finish_control h.monitor Resource.Cpu with
   | `Terminated site -> Alcotest.(check string) "largest contributor dies" "hog" site
   | `Unthrottled -> Alcotest.fail "expected termination");
  Alcotest.(check (list string)) "kill callback" [ "hog" ] !(h.killed);
  Alcotest.(check int) "termination counted" 1
    (Core.Telemetry.Metrics.counter h.metrics ~labels:[ ("site", "hog") ]
       "monitor.terminations")

let test_control_unthrottles_if_congestion_clears () =
  let h = make_harness () in
  Accounting.charge h.accounting ~site:"s" Resource.Cpu 5.0;
  Hashtbl.replace h.congested Resource.Cpu true;
  ignore (Monitor.begin_control h.monitor Resource.Cpu);
  Hashtbl.replace h.congested Resource.Cpu false (* throttling took effect *);
  Alcotest.(check bool) "unthrottled" true
    (Monitor.finish_control h.monitor Resource.Cpu = `Unthrottled);
  Alcotest.(check bool) "nobody killed" true (!(h.killed) = []);
  Alcotest.(check bool) "unthrottle callback ran" true (!(h.unthrottled) >= 1)

let test_control_no_ghost_kill () =
  (* finish_control with no prior begin ranks nobody. *)
  let h = make_harness () in
  Hashtbl.replace h.congested Resource.Cpu true;
  Alcotest.(check bool) "no pending queue" true
    (Monitor.finish_control h.monitor Resource.Cpu = `Unthrottled)

let test_control_per_resource_isolation () =
  let h = make_harness () in
  Accounting.charge h.accounting ~site:"s" Resource.Cpu 1.0;
  Accounting.charge h.accounting ~site:"s" Resource.Memory 1.0;
  Hashtbl.replace h.congested Resource.Cpu true;
  ignore (Monitor.begin_control h.monitor Resource.Cpu);
  ignore (Monitor.begin_control h.monitor Resource.Memory);
  (* only cpu was congested; memory usage (renewable) folded as zero *)
  Alcotest.(check bool) "cpu counted" true (Accounting.usage h.accounting ~site:"s" Resource.Cpu > 0.0);
  Alcotest.(check (float 1e-9)) "memory not counted" 0.0
    (Accounting.usage h.accounting ~site:"s" Resource.Memory)

let test_control_unthrottle_event () =
  (* Restoration is auditable: lifting the clamp emits one structured
     [unthrottle] event (and counter tick) per previously throttled
     site, symmetric with [throttle]/[terminate]. *)
  let accounting = Accounting.create () in
  let congested = ref true in
  let events = Core.Telemetry.Events.create ~clock:(fun () -> 0.0) in
  let metrics = Core.Telemetry.Metrics.create () in
  let monitor =
    Monitor.create ~accounting
      ~is_congested:(fun ~final:_ _ -> !congested)
      ~throttle:(fun ~site:_ ~fraction:_ ~resource:_ -> ())
      ~unthrottle:(fun _ -> ())
      ~terminate:(fun ~site:_ -> ())
      ~events ~metrics
  in
  Accounting.charge accounting ~site:"hog" Resource.Cpu 3.0;
  Accounting.charge accounting ~site:"meek" Resource.Cpu 1.0;
  ignore (Monitor.begin_control monitor Resource.Cpu);
  congested := false;
  Alcotest.(check bool) "unthrottled" true
    (Monitor.finish_control monitor Resource.Cpu = `Unthrottled);
  let unthrottles =
    List.filter
      (fun (e : Core.Telemetry.Events.event) -> e.Core.Telemetry.Events.name = "unthrottle")
      (Core.Telemetry.Events.to_list events)
  in
  Alcotest.(check int) "one event per throttled site" 2 (List.length unthrottles);
  let sites =
    List.sort compare
      (List.filter_map
         (fun (e : Core.Telemetry.Events.event) ->
           List.assoc_opt "site" e.Core.Telemetry.Events.attrs)
         unthrottles)
  in
  Alcotest.(check (list string)) "sites named" [ "hog"; "meek" ] sites;
  List.iter
    (fun (e : Core.Telemetry.Events.event) ->
      Alcotest.(check (option string))
        "resource attr" (Some "cpu")
        (List.assoc_opt "resource" e.Core.Telemetry.Events.attrs))
    unthrottles;
  Alcotest.(check int) "counter ticked" 2
    (Core.Telemetry.Metrics.counter_total metrics "monitor.unthrottles")

let test_control_no_unthrottle_event_when_idle () =
  (* A control cycle that never throttled anyone has nothing to restore:
     no spurious events. *)
  let h = make_harness () in
  let events = Core.Telemetry.Events.create ~clock:(fun () -> 0.0) in
  let monitor =
    Monitor.create ~accounting:h.accounting
      ~is_congested:(fun ~final:_ _ -> false)
      ~throttle:(fun ~site:_ ~fraction:_ ~resource:_ -> ())
      ~unthrottle:(fun _ -> ())
      ~terminate:(fun ~site:_ -> ())
      ~events ~metrics:h.metrics
  in
  ignore (Monitor.begin_control monitor Resource.Cpu);
  ignore (Monitor.finish_control monitor Resource.Cpu);
  Alcotest.(check int) "no events" 0 (List.length (Core.Telemetry.Events.to_list events))

(* --- accounting edge cases ------------------------------------------- *)

let test_close_interval_zero_sites () =
  (* Fig. 6's UPDATE with nothing running: a no-op, not a crash. *)
  let a = Accounting.create () in
  close_interval a ~congested:(fun _ -> true);
  close_interval a ~congested:(fun _ -> false);
  Alcotest.(check (list string)) "still no sites" [] (Accounting.active_sites a);
  Alcotest.(check (float 1e-9)) "no usage" 0.0 (Accounting.usage a ~site:"s" Resource.Cpu)

let test_contribution_with_zero_total () =
  (* A site whose averaged usage is 0 (and a node whose total is 0)
     contributes 0, not NaN. *)
  let a = Accounting.create () in
  Alcotest.(check int) "empty accounting" 0 (List.length (shares a Resource.Cpu));
  (* Fold an uncongested interval: renewable usage stays 0 but the site
     is known — the division by a zero total must still guard. *)
  Accounting.charge a ~site:"s" Resource.Cpu 5.0;
  Accounting.close_resource_interval a Resource.Cpu ~congested:false;
  let fractions = shares a Resource.Cpu in
  Alcotest.(check int) "zero total guarded" 0 (List.length fractions);
  Alcotest.(check bool) "not nan" false (List.exists (fun (_, f) -> Float.is_nan f) fractions)

(* --- admission control ------------------------------------------------ *)

let make_admission ?(target = 0.1) ?(interval = 0.5) ?(capacity = 8)
    ?(metrics = Core.Telemetry.Metrics.create ()) () =
  let clock = ref 0.0 in
  let adm =
    Admission.create
      { Admission.default with target; interval; capacity }
      ~clock:(fun () -> !clock)
      ~metrics
  in
  (clock, adm)

let test_admission_admits_when_idle () =
  let _clock, adm = make_admission () in
  (match Admission.offer adm ~site:"s" ~queue_delay:0.0 with
   | Admission.Admitted -> ()
   | Admission.Shed _ -> Alcotest.fail "idle node must admit");
  Alcotest.(check int) "slot occupied" 1 (Admission.queue_length adm);
  Admission.release adm ~site:"s";
  Alcotest.(check int) "slot freed" 0 (Admission.queue_length adm)

let test_admission_codel_sheds_after_interval () =
  let clock, adm = make_admission ~target:0.1 ~interval:0.5 () in
  (* Delay above target, but not yet for a full interval: admitted. *)
  (match Admission.offer adm ~site:"s" ~queue_delay:0.3 with
   | Admission.Admitted -> ()
   | Admission.Shed _ -> Alcotest.fail "burst must not shed immediately");
  Admission.release adm ~site:"s";
  clock := 0.6;
  (* Still above target a full interval later: shedding starts. *)
  (match Admission.offer adm ~site:"s" ~queue_delay:0.3 with
   | Admission.Shed { reason; retry_after } ->
     Alcotest.(check string) "reason" "overload" reason;
     Alcotest.(check bool) "retry hint positive" true (retry_after > 0.0)
   | Admission.Admitted -> Alcotest.fail "sustained overload must shed");
  Alcotest.(check bool) "shedding state" true (Admission.shedding adm);
  (* Hysteresis: the first arrival that sees delay back under the
     target flips the controller out of shedding. *)
  clock := 1.0;
  (match Admission.offer adm ~site:"s" ~queue_delay:0.05 with
   | Admission.Admitted -> ()
   | Admission.Shed _ -> Alcotest.fail "recovered delay must admit");
  Alcotest.(check bool) "shedding cleared" false (Admission.shedding adm)

let test_admission_queue_full () =
  let metrics = Core.Telemetry.Metrics.create () in
  let _clock, adm = make_admission ~capacity:4 ~metrics () in
  for _ = 1 to 4 do
    match Admission.offer adm ~site:"s" ~queue_delay:0.0 with
    | Admission.Admitted -> ()
    | Admission.Shed _ -> Alcotest.fail "under capacity must admit"
  done;
  (match Admission.offer adm ~site:"s" ~queue_delay:0.0 with
   | Admission.Shed { reason; _ } -> Alcotest.(check string) "reason" "queue-full" reason
   | Admission.Admitted -> Alcotest.fail "full queue must shed");
  Alcotest.(check int) "shed metric labeled" 1
    (Core.Telemetry.Metrics.counter metrics
       ~labels:[ ("site", "s"); ("reason", "queue-full") ]
       "admission.sheds");
  (* Releasing a slot reopens the queue. *)
  Admission.release adm ~site:"s";
  match Admission.offer adm ~site:"s" ~queue_delay:0.0 with
  | Admission.Admitted -> ()
  | Admission.Shed _ -> Alcotest.fail "freed slot must admit"

let test_admission_fair_share () =
  (* Once the queue is contended, a site already over [capacity /
     active sites] is shed even though the node is not in delay
     overload — one hot site cannot starve the rest. *)
  let _clock, adm = make_admission ~capacity:8 () in
  (* hog takes 4 slots, meek takes 1: queue is half full. *)
  let admitted = ref 0 in
  for _ = 1 to 4 do
    if Admission.offer adm ~site:"hog" ~queue_delay:0.0 = Admission.Admitted then incr admitted
  done;
  ignore (Admission.offer adm ~site:"meek" ~queue_delay:0.0);
  Alcotest.(check int) "hog occupancy" 4 !admitted;
  (* hog wants a 5th slot: fair share with 2 active sites is 4. *)
  (match Admission.offer adm ~site:"hog" ~queue_delay:0.0 with
   | Admission.Shed { reason; _ } -> Alcotest.(check string) "reason" "fair-share" reason
   | Admission.Admitted -> Alcotest.fail "hog over its share must shed");
  (* meek still gets in. *)
  match Admission.offer adm ~site:"meek" ~queue_delay:0.0 with
  | Admission.Admitted -> ()
  | Admission.Shed _ -> Alcotest.fail "meek under its share must admit"

let test_admission_shed_rate_window () =
  let clock, adm = make_admission ~capacity:2 () in
  ignore (Admission.offer adm ~site:"s" ~queue_delay:0.0);
  ignore (Admission.offer adm ~site:"s" ~queue_delay:0.0);
  ignore (Admission.offer adm ~site:"s" ~queue_delay:0.0);
  ignore (Admission.offer adm ~site:"s" ~queue_delay:0.0);
  (* 2 admitted + 2 shed in the current window. *)
  Alcotest.(check (float 1e-9)) "rate in window" 0.5 (Admission.shed_rate adm);
  (* After the window rolls with no arrivals, the last completed
     window's rate is still reported (the redirector reads this). *)
  clock := 6.0;
  Alcotest.(check (float 1e-9)) "rate carries over" 0.5 (Admission.shed_rate adm)

let test_admission_reset () =
  let _clock, adm = make_admission ~capacity:2 () in
  ignore (Admission.offer adm ~site:"s" ~queue_delay:0.0);
  ignore (Admission.offer adm ~site:"s" ~queue_delay:0.0);
  Admission.reset adm;
  Alcotest.(check int) "occupancy cleared" 0 (Admission.queue_length adm);
  match Admission.offer adm ~site:"s" ~queue_delay:0.0 with
  | Admission.Admitted -> ()
  | Admission.Shed _ -> Alcotest.fail "reset queue must admit"

(* --- circuit breaker -------------------------------------------------- *)

let make_breaker ?(failure_threshold = 3) ?(cooldown = 5.0) ?(max_cooldown = 20.0)
    ?(metrics = Core.Telemetry.Metrics.create ()) () =
  let clock = ref 0.0 in
  let b =
    Breaker.create ~name:"origin:test"
      { Breaker.default with failure_threshold; cooldown; max_cooldown }
      ~clock:(fun () -> !clock)
      ~metrics
  in
  (clock, b)

let test_breaker_trips_on_consecutive_failures () =
  let metrics = Core.Telemetry.Metrics.create () in
  let _clock, b = make_breaker ~metrics () in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.failure b;
  Breaker.failure b;
  Alcotest.(check bool) "two failures stay closed" true (Breaker.state b = Breaker.Closed);
  Breaker.failure b;
  Alcotest.(check bool) "third failure trips" true (Breaker.state b = Breaker.Open);
  (match Breaker.acquire b with
   | `Reject retry -> Alcotest.(check bool) "retry hint" true (retry > 0.0)
   | `Proceed -> Alcotest.fail "open breaker must reject");
  Alcotest.(check int) "opens metric labeled" 1
    (Core.Telemetry.Metrics.counter metrics
       ~labels:[ ("upstream", "origin:test") ]
       "breaker.opens")

let test_breaker_success_resets_consecutive () =
  let _clock, b = make_breaker () in
  Breaker.failure b;
  Breaker.failure b;
  Breaker.success b;
  Breaker.failure b;
  Breaker.failure b;
  Alcotest.(check bool) "success broke the streak" true (Breaker.state b = Breaker.Closed)

let test_breaker_half_open_single_probe () =
  let metrics = Core.Telemetry.Metrics.create () in
  let clock, b = make_breaker ~cooldown:5.0 ~metrics () in
  for _ = 1 to 3 do Breaker.failure b done;
  clock := 5.0;
  (* Cooldown elapsed: exactly one probe is admitted. *)
  (match Breaker.acquire b with
   | `Proceed -> ()
   | `Reject _ -> Alcotest.fail "cooldown elapsed: probe must proceed");
  Alcotest.(check bool) "half-open" true (Breaker.state b = Breaker.Half_open);
  (match Breaker.acquire b with
   | `Reject _ -> ()
   | `Proceed -> Alcotest.fail "second concurrent probe must be rejected");
  Alcotest.(check int) "one probe granted" 1
    (Core.Telemetry.Metrics.counter metrics
       ~labels:[ ("upstream", "origin:test") ]
       "breaker.probes");
  (* The probe succeeds: closed, and the backoff is forgiven. *)
  Breaker.success b;
  Alcotest.(check bool) "closed again" true (Breaker.state b = Breaker.Closed);
  match Breaker.acquire b with
  | `Proceed -> ()
  | `Reject _ -> Alcotest.fail "closed breaker must admit"

let test_breaker_probe_failure_doubles_cooldown () =
  let clock, b = make_breaker ~cooldown:5.0 ~max_cooldown:20.0 () in
  for _ = 1 to 3 do Breaker.failure b done;
  (* trip 1: open until t=5 *)
  clock := 5.0;
  (match Breaker.acquire b with `Proceed -> () | `Reject _ -> Alcotest.fail "probe 1");
  Breaker.failure b;
  (* probe failed: open again with a doubled (10 s) cooldown *)
  (match Breaker.acquire b with
   | `Reject retry -> Alcotest.(check (float 1e-6)) "doubled" 10.0 retry
   | `Proceed -> Alcotest.fail "must re-open");
  clock := 15.0;
  (match Breaker.acquire b with `Proceed -> () | `Reject _ -> Alcotest.fail "probe 2");
  Breaker.failure b;
  (* 20 s now, and capped there on every subsequent trip *)
  (match Breaker.acquire b with
   | `Reject retry -> Alcotest.(check (float 1e-6)) "capped" 20.0 retry
   | `Proceed -> Alcotest.fail "must re-open");
  clock := 35.0;
  (match Breaker.acquire b with `Proceed -> () | `Reject _ -> Alcotest.fail "probe 3");
  (* A successful probe resets the backoff to the base cooldown. *)
  Breaker.success b;
  for _ = 1 to 3 do Breaker.failure b done;
  match Breaker.acquire b with
  | `Reject retry -> Alcotest.(check (float 1e-6)) "backoff forgiven" 5.0 retry
  | `Proceed -> Alcotest.fail "must be open"

let test_breaker_error_rate_trip () =
  let clock = ref 0.0 in
  let b =
    Breaker.create ~name:"origin:rate"
      { Breaker.default with failure_threshold = 100; error_rate = 0.5; window = 10.0 }
      ~clock:(fun () -> !clock)
      ~metrics:(Core.Telemetry.Metrics.create ())
  in
  (* Alternate success/failure: the consecutive counter never reaches
     the threshold, but the windowed rate does once enough samples
     accumulate. *)
  for _ = 1 to 4 do
    Breaker.success b;
    Breaker.failure b
  done;
  Alcotest.(check bool) "50% over 8 samples trips" true (Breaker.state b = Breaker.Open)

(* --- quarantine ------------------------------------------------------- *)

let make_quarantine ?(base = 30.0) ?(max_window = 240.0) ?(decay = 60.0)
    ?(metrics = Core.Telemetry.Metrics.create ()) () =
  let clock = ref 0.0 in
  let q =
    Quarantine.create
      { Quarantine.default with base; max_window; decay }
      ~clock:(fun () -> !clock)
      ~metrics
  in
  (clock, q)

let test_quarantine_ban_expires () =
  let clock, q = make_quarantine ~base:30.0 () in
  Alcotest.(check bool) "clean site unbanned" false (Quarantine.remaining q ~site:"s" > 0.0);
  let w = Quarantine.punish q ~site:"s" in
  Alcotest.(check (float 1e-9)) "first offense gets the base window" 30.0 w;
  Alcotest.(check bool) "banned" true (Quarantine.remaining q ~site:"s" > 0.0);
  Alcotest.(check (float 1e-9)) "remaining" 30.0 (Quarantine.remaining q ~site:"s");
  clock := 30.0;
  Alcotest.(check bool) "expired" false (Quarantine.remaining q ~site:"s" > 0.0);
  Alcotest.(check (float 1e-9)) "nothing remaining" 0.0 (Quarantine.remaining q ~site:"s")

let test_quarantine_escalates_and_caps () =
  let metrics = Core.Telemetry.Metrics.create () in
  let clock, q = make_quarantine ~base:30.0 ~max_window:240.0 ~decay:0.0 ~metrics () in
  let w1 = Quarantine.punish q ~site:"s" in
  clock := !clock +. w1;
  let w2 = Quarantine.punish q ~site:"s" in
  clock := !clock +. w2;
  let w3 = Quarantine.punish q ~site:"s" in
  Alcotest.(check (float 1e-9)) "doubles" 60.0 w2;
  Alcotest.(check (float 1e-9)) "doubles again" 120.0 w3;
  clock := !clock +. w3;
  let w4 = Quarantine.punish q ~site:"s" in
  clock := !clock +. w4;
  let w5 = Quarantine.punish q ~site:"s" in
  Alcotest.(check (float 1e-9)) "reaches the cap" 240.0 w4;
  Alcotest.(check (float 1e-9)) "stays at the cap" 240.0 w5;
  Alcotest.(check int) "ban metric labeled" 5
    (Core.Telemetry.Metrics.counter metrics ~labels:[ ("site", "s") ] "quarantine.bans")

let test_quarantine_strikes_decay () =
  let clock, q = make_quarantine ~base:30.0 ~decay:60.0 () in
  ignore (Quarantine.punish q ~site:"s");
  Alcotest.(check (float 1e-9)) "the first strike doubled the window" 60.0
    (Quarantine.punish q ~site:"s");
  (* The second ban expires at t=60 (the 30 s window was granted at t=0
     against 1 prior strike... the ban runs 60 s); good behaviour only
     counts after expiry. Two decay periods later, both strikes are
     gone and the next offense gets the base window again. *)
  clock := Quarantine.remaining q ~site:"s" +. 120.0;
  Alcotest.(check bool) "served again" false (Quarantine.remaining q ~site:"s" > 0.0);
  let w = Quarantine.punish q ~site:"s" in
  Alcotest.(check (float 1e-9)) "recovered to the base window" 30.0 w

let test_quarantine_active_and_forgive () =
  (* A site is forgiven when its window ends, not by an override. *)
  let clock, q = make_quarantine ~base:30.0 () in
  ignore (Quarantine.punish q ~site:"b");
  clock := 10.0;
  ignore (Quarantine.punish q ~site:"a");
  Alcotest.(check (list string)) "active sorted" [ "a"; "b" ]
    (List.map fst (Quarantine.active q));
  clock := 31.0;
  Alcotest.(check (list string)) "forgiven" [ "a" ] (List.map fst (Quarantine.active q));
  clock := 41.0;
  Alcotest.(check (list string)) "expired bans drop out" [] (List.map fst (Quarantine.active q))

let admission_slots_balance_prop =
  QCheck.Test.make ~name:"admission: queue length equals admits minus releases" ~count:200
    QCheck.(list (pair (int_range 0 3) bool))
    (fun ops ->
      let _clock, adm = make_admission ~capacity:1000 () in
      let outstanding = ref 0 in
      List.iter
        (fun (site_idx, release_after) ->
          let site = Printf.sprintf "s%d" site_idx in
          (match Admission.offer adm ~site ~queue_delay:0.0 with
           | Admission.Admitted -> incr outstanding
           | Admission.Shed _ -> ());
          if release_after && !outstanding > 0 then begin
            Admission.release adm ~site;
            decr outstanding
          end)
        ops;
      Admission.queue_length adm = !outstanding)

let throttle_fractions_sum_to_one_prop =
  QCheck.Test.make ~name:"throttle fractions over active sites sum to 1" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (float_range 0.1 50.0))
    (fun loads ->
      let h = make_harness () in
      List.iteri
        (fun i load ->
          Accounting.charge h.accounting ~site:(Printf.sprintf "s%d" i) Resource.Cpu load)
        loads;
      Hashtbl.replace h.congested Resource.Cpu true;
      match Monitor.begin_control h.monitor Resource.Cpu with
      | `Congested fractions ->
        let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 fractions in
        Float.abs (total -. 1.0) < 1e-6
      | `Clear -> false)

(* --- tail tolerance: deadlines, hedging, retry budgets ------------- *)

(* A budget minted at admission for a request that carries none. *)
let mint ~now ~budget =
  Option.get
    (Deadline.admit ~now ~budget (Core.Http.Message.request "http://www.example.edu/index.html"))

let test_deadline_mint_and_expiry () =
  let d = mint ~now:100.0 ~budget:2.0 in
  Alcotest.(check (float 1e-9)) "full at mint" 2.0 (Deadline.remaining d ~now:100.0);
  Alcotest.(check bool) "alive just before" false (Deadline.expired d ~now:101.9);
  Alcotest.(check bool) "expired at the boundary" true (Deadline.expired d ~now:102.0);
  Alcotest.(check (float 1e-9)) "clamp to remaining" 0.5 (Deadline.clamp d ~now:101.5 2.0);
  Alcotest.(check (float 1e-9)) "clamp keeps short timeouts" 1.0 (Deadline.clamp d ~now:100.5 1.0);
  Alcotest.(check (float 1e-9)) "clamp floors at zero" 0.0 (Deadline.clamp d ~now:103.0 1.0)

let test_deadline_header_roundtrip () =
  let req = Core.Http.Message.request "http://www.example.edu/index.html" in
  let d = mint ~now:10.0 ~budget:1.5 in
  Deadline.stamp d ~now:10.5 req;
  (* The header carries remaining seconds, not an absolute instant:
     the receiver rebuilds the expiry against its own clock. *)
  (match Deadline.of_request ~now:50.0 req with
   | None -> Alcotest.fail "stamped budget should parse"
   | Some carried ->
     Alcotest.(check (float 1e-5)) "remaining survives the hop" 1.0
       (Deadline.remaining carried ~now:50.0));
  Core.Http.Message.set_req_header req Deadline.header "not-a-number";
  Alcotest.(check bool) "malformed header ignored" true
    (Deadline.of_request ~now:0.0 req = None);
  Core.Http.Message.set_req_header req Deadline.header "-0.25";
  (match Deadline.of_request ~now:0.0 req with
   | None -> Alcotest.fail "non-positive budget must still parse"
   | Some d -> Alcotest.(check bool) "and arrive expired" true (Deadline.expired d ~now:0.0))

let test_deadline_admit_combines () =
  let fresh () = Core.Http.Message.request "http://www.example.edu/index.html" in
  (match Deadline.admit ~now:0.0 ~budget:0.0 (fresh ()) with
   | None -> ()
   | Some _ -> Alcotest.fail "no budget, no header: deadline-free");
  (match Deadline.admit ~now:0.0 ~budget:3.0 (fresh ()) with
   | None -> Alcotest.fail "positive budget mints"
   | Some d -> Alcotest.(check (float 1e-9)) "minted" 3.0 (Deadline.remaining d ~now:0.0));
  let req = fresh () in
  Deadline.stamp (mint ~now:0.0 ~budget:0.5) ~now:0.0 req;
  (match Deadline.admit ~now:0.0 ~budget:3.0 req with
   | None -> Alcotest.fail "carried + minted admits"
   | Some d ->
     Alcotest.(check (float 1e-5)) "the tighter carried budget wins" 0.5
       (Deadline.remaining d ~now:0.0));
  let req = fresh () in
  Deadline.stamp (mint ~now:0.0 ~budget:9.0) ~now:0.0 req;
  (match Deadline.admit ~now:0.0 ~budget:3.0 req with
   | None -> Alcotest.fail "carried + minted admits"
   | Some d ->
     Alcotest.(check (float 1e-5)) "the tighter minted budget wins" 3.0
       (Deadline.remaining d ~now:0.0))

let test_deadline_expired_response_shape () =
  let resp = Deadline.expired_response ~retry_after:2.4 ~reason:"deadline-origin" () in
  Alcotest.(check int) "status" 504 resp.Core.Http.Message.status;
  Alcotest.(check (option string)) "machine-readable reason" (Some "deadline-origin")
    (Core.Http.Message.resp_header resp "X-NaKika-Timeout");
  Alcotest.(check (option string)) "retry-after ceiling" (Some "3")
    (Core.Http.Message.resp_header resp "Retry-After")

let test_retry_budget_spend_and_refill () =
  let m = Core.Telemetry.Metrics.create () in
  (* ratio 0.25 is exact in binary, so the refill arithmetic below is
     deterministic rather than accumulating rounding error. *)
  let rb = Retry_budget.create ~ratio:0.25 ~metrics:m () in
  (* Retries granted in a row before the bucket runs dry. *)
  let drain upstream =
    let n = ref 0 in
    while Retry_budget.try_retry rb ~upstream do
      incr n
    done;
    !n
  in
  Alcotest.(check int) "starts full: the cap of 8 retries" 8 (drain "peer");
  Alcotest.(check bool) "dry bucket refuses" false (Retry_budget.try_retry rb ~upstream:"peer");
  Alcotest.(check int) "refusals counted, labeled by upstream" 2
    (Core.Telemetry.Metrics.counter m ~labels:[ ("upstream", "peer") ] "retry.budget_exhausted");
  (* Four successes earn exactly one retry at ratio 0.25. *)
  for _ = 1 to 4 do
    Retry_budget.success rb ~upstream:"peer"
  done;
  Alcotest.(check bool) "earned retry" true (Retry_budget.try_retry rb ~upstream:"peer");
  Alcotest.(check bool) "and only one" false (Retry_budget.try_retry rb ~upstream:"peer");
  (* Buckets are per upstream: a dry "peer" bucket says nothing about
     an origin's. And refills cap at the ceiling. *)
  Alcotest.(check bool) "independent upstreams" true
    (Retry_budget.try_retry rb ~upstream:"origin:www.example.edu");
  for _ = 1 to 100 do
    Retry_budget.success rb ~upstream:"peer"
  done;
  Alcotest.(check int) "refill capped" 8 (drain "peer")

let test_hedge_bucket_bounds_overhead () =
  let m = Core.Telemetry.Metrics.create () in
  (* rate 0.25 (burst 100 * rate = 25) keeps the token arithmetic exact
     in binary: greedy hedging against 64 primaries spends a token per
     primary while the burst lasts and refills a quarter token each, so
     it issues 40 — never the naive burst + rate * primaries = 41,
     because tokens are spent before later refills accumulate. *)
  let hedge = Hedge.create ~rate:0.25 ~metrics:m () in
  let issued = ref 0 in
  for _ = 1 to 64 do
    Hedge.note_primary hedge;
    if Hedge.try_hedge hedge then incr issued
  done;
  Alcotest.(check int) "burst, then one per 1/rate primaries" 40 !issued;
  Alcotest.(check int) "issued counter" 40 (Core.Telemetry.Metrics.counter m "hedge.issued");
  Hedge.won hedge;
  Hedge.cancelled hedge;
  Hedge.cancelled hedge;
  Alcotest.(check int) "wins" 1 (Core.Telemetry.Metrics.counter m "hedge.wins");
  Alcotest.(check int) "cancellations" 2 (Core.Telemetry.Metrics.counter m "hedge.cancelled")

let test_hedge_delay_from_histogram () =
  Alcotest.(check (float 1e-9)) "no histogram: fallback" 0.25
    (Hedge.delay ~fallback:0.25 ());
  let m = Core.Telemetry.Metrics.create () in
  for _ = 1 to 10 do
    Core.Telemetry.Metrics.observe m "fetch.latency" 0.02
  done;
  let h () = Core.Telemetry.Metrics.histogram m "fetch.latency" in
  Alcotest.(check (float 1e-9)) "under min_samples: fallback" 0.25
    (Hedge.delay ?histogram:(h ()) ~fallback:0.25 ());
  for _ = 1 to 30 do
    Core.Telemetry.Metrics.observe m "fetch.latency" 0.02
  done;
  let d = Hedge.delay ?histogram:(h ()) ~fallback:0.25 () in
  Alcotest.(check bool) "warm histogram: p95, not fallback" true (d < 0.05 && d > 0.0)

(* --- the upstream-call path -------------------------------------- *)

let make_upstream ?(retry_ratio = 0.0) () =
  let clock = ref 0.0 in
  let metrics = Core.Telemetry.Metrics.create () in
  let up =
    Upstream.create
      { Breaker.default with failure_threshold = 1; cooldown = 5.0 }
      ~retry_ratio
      ~clock:(fun () -> !clock)
      ~metrics
  in
  (clock, metrics, up)

let proceed up key =
  match Upstream.acquire up key with
  | `Proceed ticket -> ticket
  | `Reject _ -> Alcotest.failf "%s: expected to proceed" key

let test_upstream_reject_records_nothing () =
  let clock, metrics, up = make_upstream () in
  Upstream.settle (proceed up "origin:a") false;
  Alcotest.(check (list string)) "tripped" [ "origin:a" ] (Upstream.open_breakers up);
  clock := 5.0;
  (* Half-open: the probe holds the only slot. A reject recorded as a
     failure would re-open the breaker; one recorded as a success
     would close it. *)
  let probe = proceed up "origin:a" in
  (match Upstream.acquire up "origin:a" with
   | `Reject _ -> ()
   | `Proceed _ -> Alcotest.fail "second probe must be rejected");
  Alcotest.(check int) "short circuit counted" 1
    (Core.Telemetry.Metrics.counter metrics "breaker-short-circuits");
  Alcotest.(check int) "no trip recorded" 1
    (Core.Telemetry.Metrics.counter metrics ~labels:[ ("upstream", "origin:a") ] "breaker.opens");
  Alcotest.(check (list string)) "still half-open" [ "origin:a" ] (Upstream.open_breakers up);
  Alcotest.(check int) "only the probe is outstanding" 1 (Upstream.outstanding up);
  Upstream.settle probe true;
  Alcotest.(check (list string)) "probe closed it" [] (Upstream.open_breakers up);
  Alcotest.(check int) "nothing outstanding" 0 (Upstream.outstanding up)

let test_upstream_settle_once () =
  let _clock, _metrics, up = make_upstream () in
  let ticket = proceed up "peer:b" in
  Upstream.settle ticket true;
  Alcotest.check_raises "second settle"
    (Invalid_argument "Upstream.settle: ticket already settled") (fun () ->
      Upstream.settle ticket false);
  Alcotest.(check int) "accounted once" 0 (Upstream.outstanding up);
  Alcotest.(check (list string)) "the second outcome was not recorded" []
    (Upstream.open_breakers up)

let test_upstream_retry_budget () =
  let clock, metrics, up = make_upstream ~retry_ratio:0.25 () in
  let _, _, unbudgeted = make_upstream () in
  Alcotest.(check bool) "no budget configured" true (Upstream.retry unbudgeted "peer" = `Unbudgeted);
  let spent = mint ~now:0.0 ~budget:1.0 in
  let live = mint ~now:0.0 ~budget:10.0 in
  clock := 2.0;
  Alcotest.(check bool) "expired deadline refuses" true
    (Upstream.retry up ~deadline:spent "peer" = `Refused);
  (* The bucket starts at its cap; the refusal above drew nothing, so
     exactly [cap] retries are granted before it runs dry. *)
  let granted = ref 0 in
  while Upstream.retry up ~deadline:live "peer" = `Granted do
    incr granted
  done;
  Alcotest.(check int) "one token per retry" 8 !granted;
  Alcotest.(check int) "only the dry bucket counts as exhausted" 1
    (Core.Telemetry.Metrics.counter metrics ~labels:[ ("upstream", "peer") ]
       "retry.budget_exhausted");
  (* Four settled successes at ratio 0.25 earn exactly one retry; a
     settle without a budget key earns none. *)
  Upstream.settle (proceed up "peer:x") true;
  for _ = 1 to 3 do
    Upstream.settle ~budget:"peer" (proceed up "peer:x") true
  done;
  Alcotest.(check bool) "no refill without a budget key" true
    (Upstream.retry up "peer" = `Refused);
  Upstream.settle ~budget:"peer" (proceed up "peer:x") true;
  Alcotest.(check bool) "earned retry" true (Upstream.retry up "peer" = `Granted);
  Alcotest.(check bool) "and only one" true (Upstream.retry up "peer" = `Refused)

let test_upstream_breaker_listing () =
  let _clock, _metrics, up = make_upstream () in
  Upstream.settle (proceed up "peer:z") false;
  Upstream.settle (proceed up "origin:b") false;
  Upstream.settle (proceed up "offload:c") true;
  (* A hedged backup that won never held a ticket; its outcome still
     reaches its breaker. *)
  Upstream.record up ~budget:"peer" "peer:y" false;
  Alcotest.(check (list string)) "open breakers, sorted"
    [ "origin:b"; "peer:y"; "peer:z" ] (Upstream.open_breakers up);
  Alcotest.(check int) "record holds no ticket" 0 (Upstream.outstanding up)

let suite =
  [
    Alcotest.test_case "renewable vs nonrenewable" `Quick test_renewable_classification;
    Alcotest.test_case "charges accumulate per interval" `Quick test_charge_accumulates;
    Alcotest.test_case "renewable counts only under congestion" `Quick
      test_renewable_only_counts_under_congestion;
    Alcotest.test_case "nonrenewable always counts" `Quick test_nonrenewable_always_counts;
    Alcotest.test_case "closing an interval resets it" `Quick test_interval_resets;
    Alcotest.test_case "usage is a weighted average" `Quick test_usage_is_weighted_average;
    Alcotest.test_case "past penalization decays" `Quick test_penalization_decays;
    Alcotest.test_case "contribution shares" `Quick test_contribution_shares;
    Alcotest.test_case "active sites are sorted" `Quick test_active_sites_sorted;
    Alcotest.test_case "CONTROL: idle when uncongested" `Quick test_control_idle_when_clear;
    Alcotest.test_case "CONTROL: proportional throttling" `Quick
      test_control_throttles_proportionally;
    Alcotest.test_case "CONTROL: persistent congestion kills top offender" `Quick
      test_control_kills_top_offender_if_congestion_persists;
    Alcotest.test_case "CONTROL: clearing congestion unthrottles" `Quick
      test_control_unthrottles_if_congestion_clears;
    Alcotest.test_case "CONTROL: no kill without a ranked queue" `Quick
      test_control_no_ghost_kill;
    Alcotest.test_case "CONTROL: resources are independent" `Quick
      test_control_per_resource_isolation;
    Alcotest.test_case "CONTROL: unthrottle emits structured events" `Quick
      test_control_unthrottle_event;
    Alcotest.test_case "CONTROL: idle cycle emits no unthrottle events" `Quick
      test_control_no_unthrottle_event_when_idle;
    Alcotest.test_case "close_interval with zero active sites" `Quick
      test_close_interval_zero_sites;
    Alcotest.test_case "contribution with zero total usage" `Quick
      test_contribution_with_zero_total;
    Alcotest.test_case "ADMISSION: idle node admits" `Quick test_admission_admits_when_idle;
    Alcotest.test_case "ADMISSION: CoDel sheds after a full interval" `Quick
      test_admission_codel_sheds_after_interval;
    Alcotest.test_case "ADMISSION: bounded queue sheds when full" `Quick
      test_admission_queue_full;
    Alcotest.test_case "ADMISSION: fair share under contention" `Quick
      test_admission_fair_share;
    Alcotest.test_case "ADMISSION: shed rate over the reporting window" `Quick
      test_admission_shed_rate_window;
    Alcotest.test_case "ADMISSION: reset clears occupancy after a crash" `Quick
      test_admission_reset;
    Alcotest.test_case "BREAKER: trips on consecutive failures" `Quick
      test_breaker_trips_on_consecutive_failures;
    Alcotest.test_case "BREAKER: success resets the failure streak" `Quick
      test_breaker_success_resets_consecutive;
    Alcotest.test_case "BREAKER: half-open admits a single probe" `Quick
      test_breaker_half_open_single_probe;
    Alcotest.test_case "BREAKER: probe failure doubles the cooldown" `Quick
      test_breaker_probe_failure_doubles_cooldown;
    Alcotest.test_case "BREAKER: windowed error rate trips" `Quick
      test_breaker_error_rate_trip;
    Alcotest.test_case "QUARANTINE: bans expire" `Quick test_quarantine_ban_expires;
    Alcotest.test_case "QUARANTINE: windows escalate to a cap" `Quick
      test_quarantine_escalates_and_caps;
    Alcotest.test_case "QUARANTINE: strikes decay with good behaviour" `Quick
      test_quarantine_strikes_decay;
    Alcotest.test_case "QUARANTINE: active list and forgive" `Quick
      test_quarantine_active_and_forgive;
    Alcotest.test_case "DEADLINE: mint, expiry, clamp" `Quick test_deadline_mint_and_expiry;
    Alcotest.test_case "DEADLINE: header round trip and malformed values" `Quick
      test_deadline_header_roundtrip;
    Alcotest.test_case "DEADLINE: admission combines minted and carried" `Quick
      test_deadline_admit_combines;
    Alcotest.test_case "DEADLINE: expired response is a machine-readable 504" `Quick
      test_deadline_expired_response_shape;
    Alcotest.test_case "RETRY BUDGET: spend, refill, per-upstream isolation" `Quick
      test_retry_budget_spend_and_refill;
    Alcotest.test_case "HEDGE: token bucket bounds hedge overhead" `Quick
      test_hedge_bucket_bounds_overhead;
    Alcotest.test_case "HEDGE: delay from p95 with cold-start fallback" `Quick
      test_hedge_delay_from_histogram;
    Alcotest.test_case "UPSTREAM: a reject records nothing" `Quick
      test_upstream_reject_records_nothing;
    Alcotest.test_case "UPSTREAM: a ticket settles exactly once" `Quick
      test_upstream_settle_once;
    Alcotest.test_case "UPSTREAM: retry spends one token, none past the deadline" `Quick
      test_upstream_retry_budget;
    Alcotest.test_case "UPSTREAM: open-breaker listing" `Quick test_upstream_breaker_listing;
    QCheck_alcotest.to_alcotest admission_slots_balance_prop;
    QCheck_alcotest.to_alcotest throttle_fractions_sum_to_one_prop;
  ]
