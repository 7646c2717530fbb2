(* The nk_telemetry subsystem: metrics registry (counters, gauges,
   log-bucketed histograms with their quantile-accuracy and merge
   guarantees), span tracing, structured events, profiling, and the
   end-to-end wiring through a simulated node. *)

open Core.Telemetry

(* --- histogram properties --------------------------------------------- *)

(* The quantile estimate returns the containing bucket's upper bound
   (clamped to the observed max), and buckets grow geometrically by
   2^(1/4): the estimate stays within one bucket's relative error of
   the exact nearest-rank percentile. The lower side also gets a growth
   factor of slack for samples that sit exactly on a bucket boundary
   (log rounding may place them either side). *)
let growth = Float.pow 2.0 0.25

let quantile_close ~exact ~estimate =
  estimate >= exact /. growth *. (1.0 -. 1e-9) && estimate <= exact *. growth *. (1.0 +. 1e-9)

let positive_samples = QCheck.(list_of_size Gen.(int_range 1 300) (float_range 1e-6 1e6))

let quantiles_match_stats_prop =
  QCheck.Test.make ~name:"histogram quantiles track Stats percentiles" ~count:200
    positive_samples (fun samples ->
      let h = Metrics.Histogram.create () in
      let stats = Core.Util.Stats.create () in
      List.iter
        (fun x ->
          Metrics.Histogram.observe h x;
          Core.Util.Stats.add stats x)
        samples;
      List.for_all
        (fun p ->
          quantile_close
            ~exact:(Core.Util.Stats.percentile stats p)
            ~estimate:(Metrics.Histogram.quantile h p))
        [ 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])

(* Merged through [Metrics.merge], as cluster-wide stats fold nodes'
   registries. Buckets are read from the Prometheus export, min and max
   from the JSON one; only the sum may differ, by float rounding. *)
let merge_equals_concat_prop =
  QCheck.Test.make ~name:"merged histograms = histogram of concatenated samples"
    ~count:200
    QCheck.(pair positive_samples positive_samples)
    (fun (xs, ys) ->
      let observe_all samples =
        let m = Metrics.create () in
        List.iter (Metrics.observe m "lat") samples;
        m
      in
      let merged = observe_all xs in
      Metrics.merge ~into:merged (observe_all ys);
      let concat = observe_all (xs @ ys) in
      let buckets m =
        List.filter
          (fun l -> not (String.starts_with ~prefix:"lat_sum" l))
          (String.split_on_char '\n' (Metrics.to_prometheus m))
      and without_sum m =
        let json = Metrics.to_json_lines m in
        match Core.Util.Strutil.index_sub json ~sub:{|"sum":|} ~start:0 with
        | None -> json
        | Some i ->
          let j = String.index_from json i ',' in
          String.sub json 0 i ^ String.sub json (j + 1) (String.length json - j - 1)
      and sum m = Option.fold ~none:0.0 ~some:Metrics.Histogram.sum (Metrics.histogram m "lat") in
      buckets merged = buckets concat
      && String.equal (without_sum merged) (without_sum concat)
      && Float.abs (sum merged -. sum concat) <= 1e-6 *. Float.max 1.0 (Float.abs (sum concat)))

(* --- registry units ---------------------------------------------------- *)

let test_counters_and_labels () =
  let m = Metrics.create () in
  Metrics.incr m "hits";
  Metrics.incr m ~by:2 "hits";
  Metrics.incr m ~labels:[ ("site", "a.org") ] "hits";
  Metrics.incr m ~labels:[ ("site", "b.org"); ("kind", "x") ] "hits";
  (* Label order must not matter. *)
  Metrics.incr m ~labels:[ ("kind", "x"); ("site", "b.org") ] "hits";
  Alcotest.(check int) "unlabeled" 3 (Metrics.counter m "hits");
  Alcotest.(check int) "labeled" 1 (Metrics.counter m ~labels:[ ("site", "a.org") ] "hits");
  Alcotest.(check int) "normalized labels" 2
    (Metrics.counter m ~labels:[ ("site", "b.org"); ("kind", "x") ] "hits");
  Alcotest.(check int) "total over label sets" 6 (Metrics.counter_total m "hits");
  Alcotest.(check int) "absent counter" 0 (Metrics.counter m "nope");
  Alcotest.(check (list string)) "names" [ "hits" ]
    (List.sort_uniq compare (List.map (fun (n, _, _) -> n) (Metrics.counters m)))

let test_gauges () =
  let m = Metrics.create () in
  Metrics.set_gauge m "bytes" 10.0;
  Metrics.set_gauge m "bytes" 42.0;
  Alcotest.(check (float 0.0)) "latest wins" 42.0 (Metrics.gauge m "bytes");
  Alcotest.(check (float 0.0)) "absent gauge" 0.0 (Metrics.gauge m "nope")

let test_registry_merge () =
  let a = Metrics.create () in
  let b = Metrics.create () in
  Metrics.incr a ~by:3 "reqs";
  Metrics.incr b ~by:4 "reqs";
  Metrics.set_gauge b "entries" 7.0;
  Metrics.observe a "lat" 1.0;
  Metrics.observe b "lat" 2.0;
  Metrics.merge ~into:a b;
  Alcotest.(check int) "counters add" 7 (Metrics.counter a "reqs");
  Alcotest.(check (float 0.0)) "gauges take source" 7.0 (Metrics.gauge a "entries");
  match Metrics.histogram a "lat" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h -> Alcotest.(check int) "histogram counts add" 2 (Metrics.Histogram.count h)

let test_exporters_smoke () =
  let m = Metrics.create () in
  Metrics.incr m ~labels:[ ("site", "a.org") ] "site.requests";
  Metrics.set_gauge m "cache.bytes" 123.0;
  Metrics.observe m "latency" 0.25;
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let table = Metrics.to_table m in
  Alcotest.(check bool) "table has labeled counter" true
    (contains table {|site.requests{site="a.org"}|});
  let prom = Metrics.to_prometheus m in
  Alcotest.(check bool) "prometheus types" true (contains prom "# TYPE latency histogram");
  Alcotest.(check bool) "prometheus sanitizes names" true
    (contains prom "cache_bytes 123");
  let lines = Metrics.to_json_lines m in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains lines needle))
    [
      {|"type":"counter"|};
      {|"type":"gauge"|};
      {|"type":"histogram"|};
      {|"labels":{"site":"a.org"}|};
    ];
  Alcotest.(check string) "json escaping" {|a\"b\\c|} (Metrics.json_escape {|a"b\c|})

(* --- tracer ------------------------------------------------------------ *)

(* A span's length, as [Tracer.render] prints it and [Tracer.slowest]
   ranks by. *)
let duration (s : Tracer.span) = Option.map (fun e -> e -. s.Tracer.started) s.Tracer.ended

let test_tracer_span_tree () =
  let now = ref 0.0 in
  let tracer = Tracer.create ~clock:(fun () -> !now) () in
  let root = Tracer.start_trace tracer ~attrs:[ ("url", "http://x/") ] "request" in
  now := 0.010;
  let child = Tracer.start_span tracer ~parent:root "cache-lookup" in
  Tracer.set_attr_opt (Some child) "hit" Fun.id "false";
  now := 0.015;
  Tracer.finish tracer child;
  Alcotest.(check (option (float 1e-9))) "child duration" (Some 0.005) (duration child);
  now := 0.040;
  Tracer.finish tracer root;
  Alcotest.(check int) "one trace completed" 1 (Tracer.completed tracer);
  match Tracer.traces tracer with
  | [ tr ] ->
    Alcotest.(check int) "both spans retained" 2 (List.length tr.Tracer.spans);
    let rendered = Tracer.render tr in
    List.iter
      (fun needle ->
        Alcotest.(check bool) needle true
          (let lh = String.length rendered and ln = String.length needle in
           let rec go i = i + ln <= lh && (String.sub rendered i ln = needle || go (i + 1)) in
           go 0))
      [ "request"; "cache-lookup"; "hit=false"; "url=http://x/" ]
  | traces -> Alcotest.fail (Printf.sprintf "expected 1 trace, got %d" (List.length traces))

(* An attribute's text is built only under a live span: on [None] the
   formatter is never called, on [Some] span once, and the attribute
   holds what it returned. *)
let test_tracer_formats_only_live_spans () =
  let tracer = Tracer.create ~clock:(fun () -> 0.0) () in
  let calls = ref 0 in
  let format n =
    incr calls;
    string_of_int n
  in
  Tracer.set_attr_opt None "n" format 1;
  Tracer.child tracer None "untraced" (fun span -> Tracer.set_attr_opt span "n" format 2);
  Alcotest.(check int) "no call without a span" 0 !calls;
  Tracer.child tracer (Some Tracer.top) "traced" (fun span ->
      Tracer.set_attr_opt span "n" format 3);
  Alcotest.(check int) "one call under a live span" 1 !calls;
  match Tracer.traces tracer with
  | [ tr ] ->
    Alcotest.(check (list (pair string string))) "attribute" [ ("n", "3") ]
      tr.Tracer.root.Tracer.attrs
  | traces -> Alcotest.failf "expected 1 trace, got %d" (List.length traces)

let test_tracer_ring_and_slowest () =
  let now = ref 0.0 in
  let tracer = Tracer.create ~clock:(fun () -> !now) () in
  List.iter
    (fun d ->
      let root = Tracer.start_trace tracer (Printf.sprintf "r%.0f" (d *. 1000.0)) in
      now := !now +. d;
      Tracer.finish tracer root)
    (0.030 :: List.init 255 (fun _ -> 0.001) @ [ 0.020 ]);
  Alcotest.(check int) "completed counts past capacity" 257 (Tracer.completed tracer);
  Alcotest.(check int) "ring keeps capacity" 256 (List.length (Tracer.traces tracer));
  (* The 30 ms trace was overwritten; slowest of the retained 256 is 20 ms. *)
  match Tracer.slowest tracer 5 with
  | first :: _ ->
    Alcotest.(check string) "slowest retained trace" "r20" first.Tracer.root.Tracer.name
  | [] -> Alcotest.fail "no traces retained"

(* A retained trace is the copy taken when its root closed: a span
   finished or annotated later is not reflected in it. *)
let test_tracer_copy_at_root_close () =
  let now = ref 0.0 in
  let tracer = Tracer.create ~clock:(fun () -> !now) () in
  let root = Tracer.start_trace tracer ~attrs:[ ("url", "http://x/") ] "request" in
  let child = Tracer.start_span tracer ~parent:root "origin-fetch" in
  now := 0.002;
  Tracer.finish tracer root;
  now := 0.005;
  Tracer.set_attr_opt (Some root) "late" Fun.id "true";
  Tracer.set_attr_opt (Some child) "late" Fun.id "true";
  Tracer.finish tracer child;
  match Tracer.traces tracer with
  | [ { Tracer.spans = [ r; c ]; _ } ] ->
    Alcotest.(check (option (float 0.0))) "root closed at 2 ms" (Some 0.002) r.Tracer.ended;
    Alcotest.(check (list (pair string string))) "root attributes as at close"
      [ ("url", "http://x/") ] r.Tracer.attrs;
    Alcotest.(check (option (float 0.0))) "child still open" None c.Tracer.ended;
    Alcotest.(check (list (pair string string))) "child not annotated" [] c.Tracer.attrs
  | _ -> Alcotest.fail "expected one trace of two spans"

(* Retaining a trace copies it into stores reused in place, so once 256
   traces have sized them, a trace whose names and attribute values
   already exist promotes nothing. A minor collection every 64 traces
   makes every retained trace outlive one, as a request's trace does on
   a node. *)
let test_tracer_retention_promotes_nothing () =
  let now = ref 0.0 in
  let tracer = Tracer.create ~clock:(fun () -> !now) () in
  let trace () =
    Tracer.child tracer (Some Tracer.top) ~attrs:[ ("url", "http://x/") ] "request"
      (fun root ->
        for _ = 1 to 11 do
          Tracer.child tracer root ~attrs:[ ("stage", "s") ] "stage" (fun span ->
              now := !now +. 0.001;
              Tracer.set_attr_opt span "hit" Fun.id "true")
        done)
  in
  for _ = 1 to 256 do
    trace ()
  done;
  let traces = 4096 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  for i = 1 to traces do
    trace ();
    if i mod 64 = 0 then Gc.minor ()
  done;
  let per_trace = ((Gc.quick_stat ()).Gc.promoted_words -. before) /. float_of_int traces in
  if per_trace > 1.0 then
    Alcotest.failf "%.1f words promoted per retained trace (bound 1)" per_trace

(* --- events and profile ------------------------------------------------ *)

let test_events_ring () =
  let now = ref 1.0 in
  let events = Events.create ~clock:(fun () -> !now) in
  Events.record events ~attrs:[ ("site", "a.org") ] "throttle";
  now := 2.0;
  for _ = 1 to 1023 do
    Events.record events ~attrs:[] "terminate"
  done;
  now := 3.0;
  Events.record events ~attrs:[] "throttle";
  match Events.to_list events with
  | e1 :: _ as l when List.length l = 1024 ->
    Alcotest.(check string) "oldest retained" "terminate" e1.Events.name;
    Alcotest.(check (float 0.0)) "clocked" 3.0 (List.nth l 1023).Events.time
  | l -> Alcotest.fail (Printf.sprintf "expected 1024 events, got %d" (List.length l))

let test_profile_accumulates () =
  let now = ref 0.0 in
  let p = Profile.create ~clock:(fun () -> !now) () in
  let tick d = now := !now +. d in
  ignore (Profile.time p "parse" (fun () -> tick 0.5; 1));
  ignore (Profile.time p "parse" (fun () -> tick 0.25; 2));
  ignore (Profile.time p "exec" (fun () -> tick 0.1; 3));
  (try Profile.time p "exec" (fun () -> tick 0.4; failwith "boom") with Failure _ -> 0)
  |> ignore;
  (* The rows bench/main.exe prints: region, calls, total s, max s. *)
  let rows =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "%s %d %f %f" (fun r c t m -> (r, c, t, m)))
      (String.split_on_char '\n' (Profile.to_table p))
  in
  match rows with
  | [ (region, calls, total, max); (_, _, total_b, _) ] ->
    Alcotest.(check string) "largest first" "parse" region;
    Alcotest.(check int) "calls" 2 calls;
    Alcotest.(check (float 1e-6)) "total" 0.75 total;
    Alcotest.(check (float 1e-6)) "max" 0.5 max;
    Alcotest.(check (float 1e-6)) "exception still charged" 0.5 total_b
  | l -> Alcotest.fail (Printf.sprintf "expected 2 regions, got %d" (List.length l))

(* --- end-to-end: a node's registry and traces -------------------------- *)

let test_node_wiring () =
  let open Core.Node in
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/index.html" ~max_age:300 "<html>hello</html>";
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let get () =
    Cluster.fetch cluster ~client ~proxy
      (Core.Http.Message.request "http://www.example.edu/index.html")
      (fun _ -> ());
    Cluster.run cluster
  in
  get ();
  get ();
  let m = Node.metrics proxy in
  Alcotest.(check int) "requests counted" 2 (Metrics.counter m "requests");
  Alcotest.(check int) "per-site label" 2
    (Metrics.counter m ~labels:[ ("site", "www.example.edu") ] "site.requests");
  Alcotest.(check bool) "cache hit metered" true (Metrics.counter m "cache.hits" >= 1);
  (* The facade keeps the exact samples and the registry histogram in
     lockstep. *)
  (match Metrics.histogram m "latency" with
   | None -> Alcotest.fail "latency histogram missing"
   | Some h ->
     Alcotest.(check int) "latency observations" 2 (Metrics.Histogram.count h));
  let tracer = Node.tracer proxy in
  Alcotest.(check int) "one trace per request" 2 (Tracer.completed tracer);
  (match Tracer.slowest tracer 1 with
   | [ tr ] ->
     let span_names = List.map (fun s -> s.Tracer.name) tr.Tracer.spans in
     List.iter
       (fun expected ->
         Alcotest.(check bool) expected true (List.mem expected span_names))
       [ "request"; "cache-lookup"; "policy-match"; "origin-fetch" ];
     (* Child spans nest inside the root: their simulated time is
        accounted within the request's duration. *)
     (match duration tr.Tracer.root with
      | None -> Alcotest.fail "root not finished"
      | Some root_d ->
        List.iter
          (fun s ->
            match duration s with
            | Some d -> Alcotest.(check bool) "child within root" true (d <= root_d +. 1e-9)
            | None -> Alcotest.fail "unfinished child span")
          tr.Tracer.spans)
   | _ -> Alcotest.fail "no slowest trace");
  (* Disabling tracing stops trace collection but not metrics. *)
  let cluster2 = Cluster.create () in
  let origin2 = Cluster.add_origin cluster2 ~name:"www.example.edu" () in
  Origin.set_static origin2 ~path:"/index.html" ~max_age:300 "x";
  let quiet =
    Cluster.add_proxy cluster2 ~name:"nk2.nakika.net"
      ~config:{ Config.default with Config.enable_tracing = false }
      ()
  in
  let client2 = Cluster.add_client cluster2 ~name:"c2" in
  Cluster.fetch cluster2 ~client:client2 ~proxy:quiet
    (Core.Http.Message.request "http://www.example.edu/index.html")
    (fun _ -> ());
  Cluster.run cluster2;
  Alcotest.(check int) "no traces when disabled" 0 (Tracer.completed (Node.tracer quiet));
  Alcotest.(check int) "metrics still flow" 1 (Metrics.counter (Node.metrics quiet) "requests")

(* --- growing rings against the fixed-capacity reference ---------------- *)

module Ref = Reference_telemetry

(* Record counts: anywhere in 0-3,000, or one at a ring's doubling and
   wrap edges. *)
let ring_sizes =
  QCheck.Gen.(
    oneof
      [ int_range 0 3000; oneofl [ 0; 1; 2; 255; 256; 257; 512; 1023; 1024; 1025; 2049 ] ])

let events_match_reference_prop =
  QCheck.Test.make ~name:"events: growing ring matches the fixed-capacity reference"
    ~count:100
    QCheck.(make ~print:Print.(pair int int) Gen.(pair ring_sizes int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let now = ref 0.0 in
      let clock () = !now in
      let events = Events.create ~clock and reference = Ref.Events.create ~clock () in
      for i = 1 to n do
        now := !now +. float_of_int (Random.State.int rng 3);
        let name = Printf.sprintf "e%d" (Random.State.int rng 5) in
        let attrs = if i mod 3 = 0 then [ ("i", string_of_int i) ] else [] in
        Events.record events ~attrs name;
        Ref.Events.record reference ~attrs name
      done;
      List.map
           (fun e -> (e.Events.time, e.Events.name, e.Events.attrs))
           (Events.to_list events)
         = List.map
             (fun e -> (e.Ref.Events.time, e.Ref.Events.name, e.Ref.Events.attrs))
             (Ref.Events.to_list reference))

(* Most traces get up to three children, one in 40 up to 600, so that a
   store grows while older traces are still retained. A child hangs
   under the root or under the previous child; some are left open. Roots
   and children start with and gain attributes. The clock moves in
   whole milliseconds, so that durations tie. *)
let tracer_match_reference_prop =
  QCheck.Test.make ~name:"tracer: growing ring matches the fixed-capacity reference"
    ~count:100
    QCheck.(make ~print:Print.(pair int int) Gen.(pair ring_sizes int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let now = ref 0.0 in
      let clock () = !now in
      let tick () = now := !now +. (0.001 *. float_of_int (Random.State.int rng 20)) in
      let draw () = string_of_int (Random.State.int rng 100) in
      let draw_attrs () = List.init (Random.State.int rng 3) (fun _ -> ("a" ^ draw (), draw ())) in
      let annotate span ref_span =
        for _ = 1 to Random.State.int rng 3 do
          let key = "k" ^ draw () and value = draw () in
          Tracer.set_attr_opt (Some span) key Fun.id value;
          Ref.Tracer.set_attr ref_span key value
        done
      in
      let tracer = Tracer.create ~clock () and reference = Ref.Tracer.create ~clock () in
      for i = 1 to n do
        let name = Printf.sprintf "t%d" i and attrs = draw_attrs () in
        let root = Tracer.start_trace tracer ~attrs name
        and ref_root = Ref.Tracer.start_trace reference ~attrs name in
        let children =
          if Random.State.int rng 40 = 0 then Random.State.int rng 601
          else Random.State.int rng 4
        in
        let last = ref (root, ref_root) in
        for _ = 1 to children do
          let parent, ref_parent = if Random.State.bool rng then (root, ref_root) else !last in
          let attrs = draw_attrs () in
          let child = Tracer.start_span tracer ~parent ~attrs "child"
          and ref_child = Ref.Tracer.start_span reference ~parent:ref_parent ~attrs "child" in
          tick ();
          annotate child ref_child;
          if Random.State.int rng 4 <> 0 then begin
            Tracer.finish tracer child;
            Ref.Tracer.finish reference ref_child
          end;
          last := (child, ref_child)
        done;
        annotate root ref_root;
        tick ();
        Tracer.finish tracer root;
        Ref.Tracer.finish reference ref_root
      done;
      let span s =
        ( s.Tracer.span_id,
          s.Tracer.parent_id,
          s.Tracer.name,
          s.Tracer.started,
          s.Tracer.ended,
          s.Tracer.attrs )
      and ref_span s =
        ( s.Ref.Tracer.span_id,
          s.Ref.Tracer.parent_id,
          s.Ref.Tracer.name,
          s.Ref.Tracer.started,
          s.Ref.Tracer.ended,
          s.Ref.Tracer.attrs )
      in
      let trace t = (t.Tracer.id, span t.Tracer.root, List.map span t.Tracer.spans)
      and ref_trace t =
        (t.Ref.Tracer.id, ref_span t.Ref.Tracer.root, List.map ref_span t.Ref.Tracer.spans)
      in
      Tracer.completed tracer = Ref.Tracer.completed reference
      && List.map trace (Tracer.traces tracer)
         = List.map ref_trace (Ref.Tracer.traces reference)
      && List.for_all
           (fun k ->
             List.map trace (Tracer.slowest tracer k)
             = List.map ref_trace (Ref.Tracer.slowest reference k))
           [ 0; 1; 5; 300 ])

(* A non-finite sample must not stretch the dense bucket run to its
   [int_of_float] (min_int on x86-64): it counts in the highest bucket. *)
let test_histogram_non_finite () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "h") [ 0.5; infinity; Float.nan; 2.0 ];
  Alcotest.(check int) "count" 4
    (Option.fold ~none:0 ~some:Metrics.Histogram.count (Metrics.histogram m "h"));
  (* Cumulative bucket lines of the Prometheus export, +Inf last. *)
  let buckets =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "h_bucket{le=%S} %d" (fun le n -> (le, n)))
      (String.split_on_char '\n' (Metrics.to_prometheus m))
  in
  match List.rev buckets with
  | [ ("+Inf", 4); (top, 4); (_, 2); (_, 1) ] ->
    Alcotest.(check bool) "both in the top bucket" true
      (float_of_string top >= Float.pow growth 4095.0)
  | _ -> Alcotest.fail "expected three buckets, the top one holding both"

(* --- the registry against the string-keyed reference --------------- *)

module Ref_metrics = Reference_metrics

(* Random op sequences on two registries and two reference registries:
   by-name writes with and without labels (label sets of up to three
   pairs in any order, keys possibly repeated), [~by] of zero or less,
   histogram samples at or below zero, writes through declared handles
   (one- and two-label families and a plain histogram, mirrored by the
   by-name op they stand for), and merges either way. Every export and
   reader must agree byte for byte. *)
let metric_names =
  [| "requests"; "latency"; "site.requests"; "site.latency"; "admission.sheds";
     "cache.hits"; "x.undeclared"; "client.responses" |]

let label_keys = [| "site"; "reason"; "upstream"; "k" |]

let label_values = [| "a"; "b"; ""; "1:"; "x:y"; "\xe9"; "www.crowd.example" |]

let samples = [| 0.0; -1.5; 1e-6; 0.002; 0.5; 1.0; 3.7; 1e6 |]

let sheds = Metrics.Counter.family2 "admission.sheds" ~labels:("reason", "site")

let site_requests = Metrics.Counter.family "site.requests" ~label:"site"

let site_latency = Metrics.Hist.family "site.latency" ~label:"site"

let latency = Metrics.Hist.v "latency"

let registry_matches_reference_prop =
  QCheck.Test.make ~name:"metrics: registry matches the string-keyed reference" ~count:200
    QCheck.(make ~print:Print.(pair int int) Gen.(pair (int_range 0 150) int))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let pick a = a.(Random.State.int rng (Array.length a)) in
      let sample () =
        if Random.State.bool rng then pick samples else Random.State.float rng 100.0
      in
      let labels () =
        List.init (Random.State.int rng 4) (fun _ -> (pick label_keys, pick label_values))
      in
      let regs = [| Metrics.create (); Metrics.create () |]
      and refs = [| Ref_metrics.create (); Ref_metrics.create () |] in
      for _ = 1 to n do
        let i = Random.State.int rng 2 in
        let m = regs.(i) and r = refs.(i) in
        match Random.State.int rng 8 with
        | 0 ->
          let name = pick metric_names and labels = labels () in
          let by = Random.State.int rng 5 - 1 in
          if Random.State.bool rng then begin
            Metrics.incr m ~labels ~by name;
            Ref_metrics.incr r ~labels ~by name
          end
          else begin
            Metrics.incr m ~labels name;
            Ref_metrics.incr r ~labels name
          end
        | 1 ->
          let name = pick metric_names and labels = labels () and v = sample () in
          Metrics.set_gauge m ~labels name v;
          Ref_metrics.set_gauge r ~labels name v
        | 2 | 3 ->
          let name = pick metric_names and labels = labels () and x = sample () in
          Metrics.observe m ~labels name x;
          Ref_metrics.observe r ~labels name x
        | 4 ->
          let reason = pick label_values and site = pick label_values in
          let by = Random.State.int rng 3 in
          Metrics.Counter.incr_at m ~by sheds (reason, site);
          Ref_metrics.incr r ~labels:[ ("site", site); ("reason", reason) ] ~by "admission.sheds"
        | 5 ->
          let site = pick label_values and x = sample () in
          Metrics.Counter.incr_at m site_requests site;
          Metrics.Hist.observe_at m site_latency site x;
          Ref_metrics.incr r ~labels:[ ("site", site) ] "site.requests";
          Ref_metrics.observe r ~labels:[ ("site", site) ] "site.latency" x
        | 6 ->
          let x = sample () in
          Metrics.Hist.observe m latency x;
          Ref_metrics.observe r "latency" x
        | _ ->
          Metrics.merge ~into:regs.(1 - i) m;
          Ref_metrics.merge ~into:refs.(1 - i) r
      done;
      let quantiles = [ 0.0; 1.0; 50.0; 90.0; 99.0; 100.0 ] in
      let hist h =
        ( Metrics.Histogram.count h,
          Metrics.Histogram.sum h,
          Metrics.Histogram.min_value h,
          Metrics.Histogram.max_value h,
          List.map (Metrics.Histogram.quantile h) quantiles )
      and ref_hist h =
        ( Ref_metrics.Histogram.count h,
          Ref_metrics.Histogram.sum h,
          Ref_metrics.Histogram.min_value h,
          Ref_metrics.Histogram.max_value h,
          List.map (Ref_metrics.Histogram.quantile h) quantiles )
      in
      let same m r =
        Metrics.counters m = Ref_metrics.counters r
        && List.map (fun (n, ls, h) -> (n, ls, hist h)) (Metrics.histograms m)
           = List.map (fun (n, ls, h) -> (n, ls, ref_hist h)) (Ref_metrics.histograms r)
        && Array.for_all
             (fun name ->
               Metrics.gauge m name = Ref_metrics.gauge r name
               && Metrics.counter m name = Ref_metrics.counter r name
               && Metrics.counter_total m name = Ref_metrics.counter_total r name
               && Option.map hist (Metrics.histogram m name)
                  = Option.map ref_hist (Ref_metrics.histogram r name))
             metric_names
        && String.equal (Metrics.to_json_lines m) (Ref_metrics.to_json_lines r)
        && String.equal (Metrics.to_prometheus m) (Ref_metrics.to_prometheus r)
        && String.equal (Metrics.to_table m) (Ref_metrics.to_table r)
      in
      same regs.(0) refs.(0) && same regs.(1) refs.(1))

let suite =
  [
    Alcotest.test_case "counters and labels" `Quick test_counters_and_labels;
    Alcotest.test_case "gauges" `Quick test_gauges;
    Alcotest.test_case "registry merge" `Quick test_registry_merge;
    Alcotest.test_case "exporters" `Quick test_exporters_smoke;
    Alcotest.test_case "tracer: span tree" `Quick test_tracer_span_tree;
    Alcotest.test_case "tracer: ring buffer and slowest" `Quick test_tracer_ring_and_slowest;
    Alcotest.test_case "events ring" `Quick test_events_ring;
    Alcotest.test_case "profile accumulates" `Quick test_profile_accumulates;
    Alcotest.test_case "node wiring end-to-end" `Quick test_node_wiring;
    QCheck_alcotest.to_alcotest quantiles_match_stats_prop;
    QCheck_alcotest.to_alcotest merge_equals_concat_prop;
    QCheck_alcotest.to_alcotest events_match_reference_prop;
    QCheck_alcotest.to_alcotest tracer_match_reference_prop;
    QCheck_alcotest.to_alcotest registry_matches_reference_prop;
    Alcotest.test_case "histogram: non-finite samples" `Quick test_histogram_non_finite;
    Alcotest.test_case "tracer: a retained trace is copied when its root closes" `Quick
      test_tracer_copy_at_root_close;
    Alcotest.test_case "tracer: a retained trace promotes nothing" `Quick
      test_tracer_retention_promotes_nothing;
    Alcotest.test_case "tracer: attribute text is formatted only under a live span" `Quick
      test_tracer_formats_only_live_spans;
  ]
