(* The three workloads and the open-loop episode that runs one of them.

   An episode builds a fresh deployment (set-up), then lets one
   self-rescheduling generator event issue [requests] arrivals at a
   fixed simulated rate, drives the simulator until every arrival has
   been answered, and checks every answer against what the origin
   published. The workload seed drives the request stream, the cluster
   PRNG and the fault plan, so one seed always gives the same bits. *)

module Cluster = Core.Node.Cluster
module Node = Core.Node.Node
module Config = Core.Node.Config
module Origin = Core.Node.Origin
module Sim = Core.Sim.Sim
module Metrics = Core.Telemetry.Metrics
module Message = Core.Http.Message
module Body = Core.Http.Body
module Prng = Core.Util.Prng
module Simm = Core.Workload.Simm
module Zipf = Core.Workload.Zipf

(* What a correct answer carries. Lectures are checked after the timer
   stops: the body's digest is kept and compared with the digest of
   [Simm.render_html] for the same module, lecture and student. *)
type expect =
  | Exact of string
  | Lecture of { module_ : int; lecture : int; student : string }
  | Length of int

type arrival = {
  req : Message.request;
  client : Core.Sim.Net.host;
  proxy : Node.t option; (* [None]: the redirector picks the edge node *)
  edge : string; (* the edge node the client is pinned to *)
  expect : expect;
}

type instance = {
  cluster : Cluster.t;
  proxies : Node.t array;
  next : unit -> arrival; (* the next draw of the workload stream *)
}

type t = {
  name : string;
  requests : int; (* arrivals per episode *)
  rate : float; (* arrivals per simulated second *)
  setup : seed:int -> instance;
}

(* Independent streams per component, all fixed by the workload seed. *)
let derive seed salt = (seed * 1_000_003) + salt

(* The seed also draws the network's base link latency within 2% of its
   nominal value, so every seed is its own network instance. With a
   fixed topology the simulated percentiles come out as the same
   constant under every seed. *)
let base_latency ~seed nominal =
  nominal *. (0.98 +. Prng.float (Prng.create (derive seed 4)) 0.04)

let zipf_body rank = Printf.sprintf "<html>zipf rank %d</html>" rank

let zipf_url rank = Printf.sprintf "http://www.crowd.example/zipf/%d.html" rank

let publish_zipf origin ~universe =
  for r = 0 to universe - 1 do
    Origin.set_static origin ~path:(Printf.sprintf "/zipf/%d.html" r) ~max_age:600 (zipf_body r)
  done

(* --- simm-edge: the §5.2 SIMM Edge deployment ------------------------ *)

let simm_students = 160

let simm_setup ~seed =
  let cluster =
    Cluster.create ~seed:(derive seed 1) ~default_latency:(base_latency ~seed 0.0002) ()
  in
  let origin = Cluster.add_origin cluster ~name:Simm.host () in
  Simm.install_origin origin;
  (* As in the paper's application experiments: no misbehaving sites, so
     resource controls stay out of the way. *)
  let config = { Config.default with Config.enable_resource_controls = false } in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let clients = Array.init 4 (fun i -> Cluster.add_client cluster ~name:(Printf.sprintf "lg%d" i)) in
  let rng = Prng.create (derive seed 2) in
  let next () =
    let client = clients.(Prng.int rng (Array.length clients)) in
    let student = Printf.sprintf "stu%03d" (Prng.int rng simm_students) in
    let req = Simm.make_request ~rng ~mode:Simm.Edge ~student in
    let expect =
      if Simm.is_video req then Length Simm.video_bytes
      else
        Scanf.sscanf req.Message.url.Core.Http.Url.path "/content/m%d/lec%d.xml"
          (fun module_ lecture -> Lecture { module_; lecture; student })
    in
    { req; client; proxy = Some proxy; edge = Node.name proxy; expect }
  in
  { cluster; proxies = [| proxy |]; next }

let simm_edge = { name = "simm-edge"; requests = 10_000; rate = 100.0; setup = simm_setup }

(* --- zipf-fleet: the 1000-node Zipf crowd with hotspot replication --- *)

let fleet_nodes = 1000
let fleet_universe = 10_000

let fleet_setup ~seed =
  let cluster =
    Cluster.create ~seed:(derive seed 1) ~default_latency:(base_latency ~seed 0.005)
      ~default_bandwidth:12_500_000.0 ()
  in
  let origin = Cluster.add_origin cluster ~name:"www.crowd.example" () in
  publish_zipf origin ~universe:fleet_universe;
  let config =
    {
      Config.default with
      Config.enable_pipeline = false;
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
    Array.init fleet_nodes (fun i ->
        Cluster.add_proxy cluster ~name:(Printf.sprintf "edge-%04d.nakika.net" i) ~config ())
  in
  (* One client next to each edge node: 0.5 ms against the 5 ms
     cross-traffic default, so the redirector's close set pins it. *)
  let clients =
    Array.mapi
      (fun i proxy ->
        let c = Cluster.add_client cluster ~name:(Printf.sprintf "client-%04d" i) in
        Cluster.connect cluster c (Node.host proxy) ~latency:0.0005 ~bandwidth:12_500_000.0;
        c)
      proxies
  in
  let zipf = Zipf.create ~s:0.9 ~universe:fleet_universe in
  let rng = Prng.create (derive seed 2) in
  let next () =
    let rank = Zipf.sample zipf rng in
    let i = Prng.int rng fleet_nodes in
    {
      req = Message.request (zipf_url rank);
      client = clients.(i);
      proxy = None;
      edge = Node.name proxies.(i);
      expect = Exact (zipf_body rank);
    }
  in
  { cluster; proxies; next }

let zipf_fleet = { name = "zipf-fleet"; requests = 8_000; rate = 1200.0; setup = fleet_setup }

(* --- tail-peer: deadlines, hedging and retry budgets under spikes ---- *)

let tail_universe = 8
let holder_a = "nk-a.nakika.net"
let holder_b = "nk-b.nakika.net" (* warmed last: the newest announcement, so the primary *)
let tail_edge = "nk-c.nakika.net"

let tail_setup ~seed =
  let plan = Core.Faults.Plan.create ~seed:(derive seed 3) () in
  Core.Faults.Plan.spike_link plan ~src:tail_edge ~dst:holder_b ~probability:0.02 ~extra:1.5 ();
  let cluster =
    Cluster.create ~seed:(derive seed 1) ~default_latency:(base_latency ~seed 0.0002) ~faults:plan
      ()
  in
  let origin = Cluster.add_origin cluster ~name:"www.crowd.example" () in
  publish_zipf origin ~universe:tail_universe;
  let base =
    {
      Config.default with
      Config.enable_pipeline = false;
      enable_tracing = false;
      enable_resource_controls = false;
      lint_mode = `Off;
    }
  in
  (* A one-byte cache keeps nothing, so every request takes the
     peer-fetch path through the hedge governor and the deadlines. *)
  let edge_config =
    {
      base with
      Config.cache_bytes = 1;
      request_deadline = 2.5;
      enable_hedging = true;
      hedge_rate = 0.05;
      retry_budget_ratio = 0.1;
    }
  in
  let pa = Cluster.add_proxy cluster ~name:holder_a ~config:base () in
  let pb = Cluster.add_proxy cluster ~name:holder_b ~config:base () in
  let pc = Cluster.add_proxy cluster ~name:tail_edge ~config:edge_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  (* Warm every rank at both holders, nk-a first, so nk-b holds the
     newer announcement and every edge lookup goes to the spiked link. *)
  List.iter
    (fun proxy ->
      for r = 0 to tail_universe - 1 do
        Cluster.fetch cluster ~client ~proxy (Message.request (zipf_url r)) (fun _ -> ())
      done;
      Cluster.run cluster)
    [ pa; pb ];
  let zipf = Zipf.create ~s:0.9 ~universe:tail_universe in
  let rng = Prng.create (derive seed 2) in
  let next () =
    let rank = Zipf.sample zipf rng in
    {
      req = Message.request (zipf_url rank);
      client;
      proxy = Some pc;
      edge = tail_edge;
      expect = Exact (zipf_body rank);
    }
  in
  { cluster; proxies = [| pa; pb; pc |]; next }

let tail_peer = { name = "tail-peer"; requests = 30_000; rate = 100.0; setup = tail_setup }

let all = [ simm_edge; zipf_fleet; tail_peer ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- counters read from the program's public registries ---------------- *)

(* One snapshot of every counter the ledger uses, summed over the
   cluster's proxies; an episode reports the difference between the
   snapshots taken around its measured phase. *)
let snapshot inst =
  let sum f = Array.fold_left (fun acc node -> acc +. f node) 0.0 inst.proxies in
  let counter name node = float_of_int (Metrics.counter_total (Node.metrics node) name) in
  let only pred name node = if pred (Node.config node) then counter name node else 0.0 in
  let histogram_sum name node =
    List.fold_left
      (fun acc (n, _, h) -> if n = name then acc +. Metrics.Histogram.sum h else acc)
      0.0
      (Metrics.histograms (Node.metrics node))
  in
  (* Every counter increment and histogram observation is one metric
     operation; gauges are set on timers, not per request. *)
  let metric_ops node =
    let m = Node.metrics node in
    List.fold_left (fun acc (_, _, v) -> acc +. float_of_int v) 0.0 (Metrics.counters m)
    +. List.fold_left
         (fun acc (_, _, h) -> acc +. float_of_int (Metrics.Histogram.count h))
         0.0 (Metrics.histograms m)
  in
  let compiled = Core.Script.Compile.cache_stats () in
  let dht = Core.Overlay.Dht.metrics (Cluster.dht inst.cluster) in
  let dht_counter name = float_of_int (Metrics.counter dht name) in
  let hops =
    match Metrics.histogram dht "dht.hops" with
    | Some h -> (float_of_int (Metrics.Histogram.count h), Metrics.Histogram.sum h)
    | None -> (0.0, 0.0)
  in
  [
    ("cache.hits", sum (counter "cache.hits"));
    ("cache.misses", sum (counter "cache.misses"));
    ("cache.insertions", sum (counter "cache.insertions"));
    ("cache.evictions", sum (counter "cache.evictions"));
    ("origin-fetches", sum (counter "origin-fetches"));
    ("peer-fetches", sum (counter "peer-fetches"));
    ("pipeline.passes", sum (only (fun c -> c.Config.enable_pipeline) "site.requests"));
    ("script.fuel", sum (histogram_sum "script.fuel"));
    ("compile.hits", float_of_int compiled.Core.Script.Compile.hits);
    ("compile.misses", float_of_int compiled.Core.Script.Compile.misses);
    ("admission.sheds", sum (counter "admission.sheds"));
    ("hedge.primaries", sum (only (fun c -> c.Config.enable_hedging) "dht-hits"));
    ("hedge.issued", sum (counter "hedge.issued"));
    ("hedge.wins", sum (counter "hedge.wins"));
    ("deadline.requests", sum (only (fun c -> c.Config.request_deadline > 0.0) "requests"));
    ("deadline.expired", sum (counter "deadline.expired"));
    ("breaker.opens", sum (counter "breaker.opens"));
    ( "tracer.traces",
      sum (fun node -> float_of_int (Core.Telemetry.Tracer.completed (Node.tracer node))) );
    ("metric.ops", sum metric_ops);
    ("dht.gets", dht_counter "dht.gets");
    ("dht.puts", dht_counter "dht.puts");
    ("dht.hops.count", fst hops);
    ("dht.hops.sum", snd hops);
    ("dht.sloppy_hits", dht_counter "dht.sloppy_hits");
    ("sim.events", float_of_int (Sim.executed (Cluster.sim inst.cluster)));
  ]

let delta ~before ~after = List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* --- the episode --------------------------------------------------------- *)

(* How a traced episode looks inside the loop; the untraced episode
   uses [plain], which adds nothing around the program's calls. *)
type hooks = {
  step : Sim.t -> bool; (* execute one simulator event *)
  fetch : (unit -> unit) -> unit; (* wraps the Cluster.fetch call *)
  arrived : index:int -> now:float -> arrival -> unit;
  answered : index:int -> Message.response -> unit;
}

let plain =
  {
    step = Sim.step;
    fetch = (fun f -> f ());
    arrived = (fun ~index:_ ~now:_ _ -> ());
    answered = (fun ~index:_ _ -> ());
  }

type episode = {
  setup_s : float;
  setup_gauge_s : float; (* mean time of [Timer.reference_work] around set-up *)
  wall_s : float; (* the measured phase: first arrival to last answer *)
  gauge_s : float; (* mean time of one [Timer.reference_work] during it *)
  issued : int;
  ok : int; (* answered 200 with a body that passed the check *)
  latencies : float array; (* simulated seconds of the ok answers, sorted *)
  lateness : float; (* the generator's worst lateness, simulated seconds *)
  counts : (string * float) list;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  instance : instance;
}

let client_timeout = 10.0

let gauge_every = 0.02

(* [expected_lecture] is memoised by the caller across episodes, so the
   reference rendering costs once per distinct page in a run. *)
let run ?(hooks = plain) w ~seed ~expected_lecture =
  (* Each episode is a cold start on a collected heap: programs compiled
     in an earlier episode of this process would otherwise turn misses
     into hits. *)
  Core.Script.Compile.cache_clear ();
  Gc.full_major ();
  (* Set-up is calibrated by gauges taken right around it: the host can
     change speed between set-up and the measured phase. *)
  let gauge_before = Timer.gauge_s () +. Timer.gauge_s () in
  let setup_start = Timer.now_ns () in
  let inst = w.setup ~seed in
  let sim = Cluster.sim inst.cluster in
  let setup_s = Timer.seconds_since setup_start in
  let setup_gauge_s = (gauge_before +. Timer.gauge_s () +. Timer.gauge_s ()) /. 4.0 in
  let n = w.requests in
  let expects = Array.make n (Length 0) in
  let digests = Array.make n "" in
  let elapsed = Array.make n Float.nan in
  let answered = ref 0 in
  let lateness = ref 0.0 in
  let first = Sim.now sim +. 1.0 in
  let due i = first +. (float_of_int i /. w.rate) in
  let rec arrive i () =
    let due_at = due i in
    lateness := Float.max !lateness (Sim.now sim -. due_at);
    let a = inst.next () in
    expects.(i) <- a.expect;
    hooks.arrived ~index:i ~now:(Sim.now sim) a;
    hooks.fetch (fun () ->
        Cluster.fetch inst.cluster ~client:a.client ?proxy:a.proxy ~timeout:client_timeout a.req
          (fun resp ->
            incr answered;
            hooks.answered ~index:i resp;
            if resp.Message.status = 200 then begin
              let body = resp.Message.resp_body in
              let passed =
                match a.expect with
                | Exact s -> String.equal (Body.to_string body) s
                | Length len -> Body.length body = len
                | Lecture _ ->
                  digests.(i) <- Digest.string (Body.to_string body);
                  true
              in
              if passed then elapsed.(i) <- Sim.now sim -. due_at
            end));
    if i + 1 < n then Sim.schedule_at sim (due (i + 1)) (arrive (i + 1))
  in
  Sim.schedule_at sim (due 0) (arrive 0);
  let before = snapshot inst in
  let gc0 = Gc.quick_stat () in
  (* The speed gauge runs every [gauge_every] of wall time during the
     measured phase, so its samples see the same host conditions as the
     events around them. Its time is taken out of the episode's; it
     allocates nothing, so the GC figures are the program's alone. *)
  let gauge_total = ref 0.0 and gauges = ref 0 and steps = ref 0 in
  let gauge () =
    gauge_total := !gauge_total +. Timer.gauge_s ();
    incr gauges
  in
  let start = Timer.now_ns () in
  let last_gauge = ref start in
  while !answered < n do
    if not (hooks.step sim) then
      failwith (w.name ^ ": the event queue drained before every request was answered");
    incr steps;
    if !steps land 511 = 0 && Timer.seconds_since !last_gauge >= gauge_every then begin
      gauge ();
      last_gauge := Timer.now_ns ()
    end
  done;
  let wall_s = Timer.seconds_since start -. !gauge_total in
  if !gauges = 0 then gauge ();
  let gc1 = Gc.quick_stat () in
  let counts = delta ~before ~after:(snapshot inst) in
  Array.iteri
    (fun i e ->
      match e with
      | Lecture { module_; lecture; student } ->
        if (not (Float.is_nan elapsed.(i)))
           && not (String.equal digests.(i) (expected_lecture ~module_ ~lecture ~student))
        then elapsed.(i) <- Float.nan
      | Exact _ | Length _ -> ())
    expects;
  let latencies =
    Timer.sorted_copy
      (Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list elapsed)))
  in
  {
    setup_s;
    setup_gauge_s;
    wall_s;
    gauge_s = !gauge_total /. float_of_int !gauges;
    issued = n;
    ok = Array.length latencies;
    latencies;
    lateness = !lateness;
    counts;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    instance = inst;
  }

(* The reference a lecture answer is checked against, memoised per run. *)
let lecture_oracle () =
  let memo = Hashtbl.create 4096 in
  fun ~module_ ~lecture ~student ->
    let key = (module_, lecture, student) in
    match Hashtbl.find_opt memo key with
    | Some d -> d
    | None ->
      let d = Digest.string (Simm.render_html ~module_ ~lecture ~student) in
      Hashtbl.add memo key d;
      d

let p50_ms e = 1000.0 *. Timer.percentile e.latencies 50.0
let p99_ms e = 1000.0 *. Timer.percentile e.latencies 99.0
