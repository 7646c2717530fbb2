(* The real-cost benchmark's command line.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Untraced (--trace 0): episodes of workload W run back to back until S
   seconds of measured phase have passed (at least three), and the
   end-to-end metrics are the medians over them, with wall-clock times
   scaled by each episode's speed gauge. Traced (--trace 1):
   untraced episodes for half of S give the reference rate, one traced
   episode gives the layer counts, and the per-layer replays follow.
   Every answer of every episode is checked, every episode must repeat
   the first one's simulation bit for bit, and the last line printed is
   one JSON object with the verdict and the metrics. *)

let usage = "main.exe --workload simm-edge|zipf-fleet|tail-peer --seed N --seconds S --trace 0|1"

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

type args = { workload : Scenario.t; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
    ]
    (fun a -> fail "unexpected argument %s (usage: %s)" a usage)
    usage;
  match Scenario.find !workload with
  | None -> fail "unknown workload %S (usage: %s)" !workload usage
  | Some w ->
    if !seconds <= 0.0 then fail "--seconds must be positive";
    if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
    { workload = w; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* What must repeat bit for bit between episodes of one seed: the
   simulated outcome and every counter the ledger reads. *)
let fingerprint (e : Scenario.episode) =
  ( e.Scenario.issued,
    e.Scenario.ok,
    Scenario.p50_ms e,
    Scenario.p99_ms e,
    e.Scenario.lateness,
    e.Scenario.counts )

(* Wall-clock figures of one episode. The host this runs on may be
   shared, and its other tenants can slow every process down by half for
   minutes at a time; the end-to-end times are therefore scaled to the
   fixed speed [Timer.reference_nominal_s] by the episode's own speed
   gauge ([Timer.reference_work], sampled throughout the measured phase,
   and right around set-up for the set-up time).
   The ledger works on the raw figures of its own run. *)
type summary = {
  raw_rate : float; (* simulated requests answered per wall second *)
  speed : float; (* the machine's speed during the episode, 1 = calibration *)
  rate : float; (* [raw_rate] at the calibration speed *)
  setup : float; (* set-up seconds at the calibration speed *)
  minor : float; (* words per request *)
  promoted : float;
  majors : float; (* major collections per thousand requests *)
}

let summarize (e : Scenario.episode) =
  let n = float_of_int e.Scenario.issued in
  let raw_rate = n /. e.Scenario.wall_s in
  let speed = Timer.reference_nominal_s /. e.Scenario.gauge_s in
  {
    raw_rate;
    speed;
    rate = raw_rate /. speed;
    setup = e.Scenario.setup_s *. Timer.reference_nominal_s /. e.Scenario.setup_gauge_s;
    minor = e.Scenario.minor_words /. n;
    promoted = e.Scenario.promoted_words /. n;
    majors = 1000.0 *. float_of_int e.Scenario.major_collections /. n;
  }

(* The simulated outcome of the first episode; the others repeat it. *)
type outcome = {
  issued : int;
  ok : int;
  p50_ms : float;
  p99_ms : float;
  samples : int;
  lateness : float;
}

let outcome (e : Scenario.episode) =
  {
    issued = e.Scenario.issued;
    ok = e.Scenario.ok;
    p50_ms = Scenario.p50_ms e;
    p99_ms = Scenario.p99_ms e;
    samples = Array.length e.Scenario.latencies;
    lateness = e.Scenario.lateness;
  }

type run = {
  first : outcome;
  reference : int * int * float * float * float * (string * float) list;
  summaries : summary list;
  attempted : int;
  failed : int;
  deterministic : bool;
  peak_heap_mb : float; (* top of the heap after the first episode *)
}

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

let print_episode i (e : Scenario.episode) s =
  Printf.printf
    "  episode %d: set-up %.3f s, %d requests in %.3f s (%.1f req/s; machine speed %.3f, so \
     %.1f req/s calibrated), %d ok, p50 %.4f ms, p99 %.4f ms\n%!"
    i e.Scenario.setup_s e.Scenario.issued e.Scenario.wall_s s.raw_rate s.speed s.rate
    e.Scenario.ok (Scenario.p50_ms e) (Scenario.p99_ms e)

(* Untraced episodes until [seconds] of measured phase (at least [min]). *)
let untraced args ~seconds ~min ~oracle =
  let first = Scenario.run args.workload ~seed:args.seed ~expected_lecture:oracle in
  let peak_heap_mb = heap_mb () in
  let first_summary = summarize first and first_wall = first.Scenario.wall_s in
  print_episode 1 first first_summary;
  let reference = fingerprint first in
  let first = outcome first in
  let rec loop i acc measured attempted failed deterministic =
    if i > min && measured >= seconds then (List.rev acc, attempted, failed, deterministic)
    else begin
      let e = Scenario.run args.workload ~seed:args.seed ~expected_lecture:oracle in
      let summary = summarize e in
      print_episode i e summary;
      let same = fingerprint e = reference in
      if not same then Printf.printf "  episode %d did not repeat episode 1 bit for bit\n" i;
      loop (i + 1) (summary :: acc) (measured +. e.Scenario.wall_s)
        (attempted + e.Scenario.issued)
        (failed + e.Scenario.issued - e.Scenario.ok)
        (deterministic && same)
    end
  in
  let rest, attempted, failed, deterministic =
    loop 2 [] first_wall first.issued (first.issued - first.ok) true
  in
  {
    first;
    reference;
    summaries = first_summary :: rest;
    attempted;
    failed;
    deterministic;
    peak_heap_mb;
  }

let median_of f summaries = Timer.median (List.map f summaries)

(* --- output ----------------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  print_newline ();
  List.iter (fun (name, v, unit_) -> Printf.printf "  %-42s %16.6f %s\n" name v unit_) metrics;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit_) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

(* --trace 0: the end-to-end metrics over the untraced episodes. *)
let end_to_end r ~goodput =
  let correct = r.failed = 0 && r.deterministic in
  print_result ~correct ~attempted:r.attempted ~failed:r.failed
    [
      ("sim_req_per_s", median_of (fun s -> s.rate) r.summaries, "1/s");
      ("setup_s", median_of (fun s -> s.setup) r.summaries, "s");
      ("peak_heap_mb", r.peak_heap_mb, "MB");
      ("goodput", goodput, "ratio");
      ("sim_p50_ms", r.first.p50_ms, "ms");
      ("sim_p99_ms", r.first.p99_ms, "ms");
    ];
  correct

(* --trace 1: one traced episode, the replays, and the ledger. *)
let per_layer args r ~oracle =
  let w = args.workload in
  let recorder = Ledger.recorder () in
  let traced =
    Scenario.run ~hooks:(Ledger.traced_hooks recorder) w ~seed:args.seed ~expected_lecture:oracle
  in
  Printf.printf "  traced episode: %d requests in %.3f s, %d ok\n%!" traced.Scenario.issued
    traced.Scenario.wall_s traced.Scenario.ok;
  let same = fingerprint traced = r.reference in
  if not same then print_endline "  the traced episode did not repeat the untraced one bit for bit";
  let ledger =
    Ledger.build
      ~untraced_rate:(median_of (fun s -> s.raw_rate) r.summaries)
      ~untraced_calibrated:(median_of (fun s -> s.rate) r.summaries)
      ~gc:
        ( median_of (fun s -> s.minor) r.summaries,
          median_of (fun s -> s.promoted) r.summaries,
          median_of (fun s -> s.majors) r.summaries )
      traced recorder
  in
  Ledger.print_table ~workload:w.Scenario.name ledger;
  Ledger.check_layer_map ~workload:w.Scenario.name ledger;
  let failed = r.failed + traced.Scenario.issued - traced.Scenario.ok in
  let correct = r.deterministic && same && failed = 0 in
  print_result ~correct ~attempted:(r.attempted + traced.Scenario.issued) ~failed
    ledger.Ledger.metrics;
  correct

let main () =
  let args = parse_args () in
  let w = args.workload in
  let oracle = Scenario.lecture_oracle () in
  Printf.printf "perfbench %s: seed %d, %d requests per episode at %.0f req/s (simulated), %s\n%!"
    w.Scenario.name args.seed w.Scenario.requests w.Scenario.rate
    (if args.trace then "traced" else "untraced");
  let r =
    if args.trace then untraced args ~seconds:(args.seconds /. 2.0) ~min:2 ~oracle
    else untraced args ~seconds:args.seconds ~min:3 ~oracle
  in
  let e = r.first in
  let goodput = float_of_int e.ok /. float_of_int e.issued in
  Printf.printf
    "  simulated latency over %d answers: p50 %.4f ms, p99 %.4f ms; generator lateness %.6f s \
     (open loop, %d arrivals)\n"
    e.samples e.p50_ms e.p99_ms e.lateness e.issued;
  Printf.printf "  goodput %.6f (%d of %d answers were 200 with the published body)\n" goodput e.ok
    e.issued;
  let correct = if args.trace then per_layer args r ~oracle else end_to_end r ~goodput in
  if not correct then exit 1

let () = main ()
