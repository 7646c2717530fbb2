(* The traced run: where the wall-clock cost of a simulated request goes.

   One episode is driven with every [Sim.step] and every [Cluster.fetch]
   timed from outside, and a sample of its arrivals and answers is
   recorded. Each layer's public functions are then replayed on those
   recorded inputs to get microseconds per call, and the program's own
   counters give calls per request. A layer costs calls/req x us/call;
   what the layers do not explain is the explicit [unattributed]
   residual, so the rows always add up to the measured cost. *)

module Cluster = Core.Node.Cluster
module Node = Core.Node.Node
module Config = Core.Node.Config
module Sim = Core.Sim.Sim
module Message = Core.Http.Message
module Metrics = Core.Telemetry.Metrics
module Tracer = Core.Telemetry.Tracer
module Dht = Core.Overlay.Dht
module Prng = Core.Util.Prng

(* Replays run on at most this many recorded inputs. *)
let sample = 512

(* --- recording the traced episode ---------------------------------------- *)

type recorded = {
  arrival : Scenario.arrival;
  at : float; (* simulated time of the arrival *)
  request : Message.request; (* copied before the node could touch it *)
}

type recorder = {
  mutable steps : float array; (* us per Sim.step *)
  mutable nsteps : int;
  mutable depth_max : int;
  mutable depth_sum : float;
  mutable fetch_us : float; (* summed synchronous Cluster.fetch time *)
  mutable fetches : int;
  mutable picks : int; (* fetches the redirector routed *)
  arrivals : recorded option array; (* the first [sample] arrivals *)
  answers : Message.response option array;
}

let recorder () =
  {
    steps = Array.make 65536 0.0;
    nsteps = 0;
    depth_max = 0;
    depth_sum = 0.0;
    fetch_us = 0.0;
    fetches = 0;
    picks = 0;
    arrivals = Array.make sample None;
    answers = Array.make sample None;
  }

let push_step r us =
  if r.nsteps = Array.length r.steps then begin
    let bigger = Array.make (2 * r.nsteps) 0.0 in
    Array.blit r.steps 0 bigger 0 r.nsteps;
    r.steps <- bigger
  end;
  r.steps.(r.nsteps) <- us;
  r.nsteps <- r.nsteps + 1

let traced_hooks r =
  {
    Scenario.step =
      (fun sim ->
        let depth = Sim.pending sim in
        if depth > r.depth_max then r.depth_max <- depth;
        r.depth_sum <- r.depth_sum +. float_of_int depth;
        let t0 = Timer.now_ns () in
        let more = Sim.step sim in
        push_step r (Timer.us_between t0 (Timer.now_ns ()));
        more);
    fetch =
      (fun f ->
        let t0 = Timer.now_ns () in
        f ();
        r.fetch_us <- r.fetch_us +. Timer.us_between t0 (Timer.now_ns ());
        r.fetches <- r.fetches + 1);
    arrived =
      (fun ~index ~now a ->
        if a.Scenario.proxy = None then r.picks <- r.picks + 1;
        if index < sample then
          r.arrivals.(index) <-
            Some { arrival = a; at = now; request = Message.copy_request a.Scenario.req });
    answered = (fun ~index resp -> if index < sample then r.answers.(index) <- Some resp);
  }

let recorded r = List.filter_map Fun.id (Array.to_list r.arrivals)

let answered r =
  List.concat
    (List.mapi
       (fun i rec_ ->
         match (rec_, r.answers.(i)) with
         | Some rec_, Some resp -> [ (rec_, resp) ]
         | _ -> [])
       (Array.to_list r.arrivals))

(* --- replays: us per call of each layer's public functions --------------- *)

let cache_key (req : Message.request) =
  Core.Http.Method_.to_string req.Message.meth ^ " " ^ Core.Http.Url.to_string req.Message.url

(* The scheduler alone: schedule-plus-step of a no-op event on a queue
   held at the depth the traced episode saw on average. *)
let schedule_step_us ~depth =
  let sim = Sim.create () in
  let rng = Prng.create 17 in
  let noop () = () in
  for _ = 1 to depth do
    Sim.schedule sim ~delay:(Prng.float rng 10.0) noop
  done;
  let delays = Array.init 4096 (fun _ -> Prng.float rng 10.0) in
  Timer.per_call delays (fun delay ->
      Sim.schedule sim ~delay noop;
      Sim.step sim)

(* A DHT with the fleet's node names, in join order, fed the episode's
   key stream from the edge node each request was meant for. *)
let dht_us (inst : Scenario.instance) recorded =
  let dht = Dht.create () in
  let cfg = Node.config inst.Scenario.proxies.(0) in
  Array.iter (fun node -> ignore (Dht.join dht (Node.name node))) inst.Scenario.proxies;
  if cfg.Config.enable_hotspots then
    Dht.set_hotspots dht ~halflife:cfg.Config.hotspot_halflife
      ~threshold:cfg.Config.hotspot_threshold ~replicas:cfg.Config.hotspot_replicas
      ~ttl:cfg.Config.hotspot_ttl ();
  let ops =
    Array.of_list
      (List.map (fun r -> (r.at, r.arrival.Scenario.edge, cache_key r.request)) recorded)
  in
  let put (now, from, key) = Dht.put dht ~now ~from ~key ~value:from ~ttl:cfg.Config.dht_ttl in
  let put_us = Timer.per_call ops put in
  let get_us = Timer.per_call ops (fun (now, from, key) -> Dht.get dht ~now ~from ~key) in
  (get_us, put_us)

let redirector_pick_us (inst : Scenario.instance) recorded =
  let redirector = Cluster.redirector inst.Scenario.cluster in
  let rng = Prng.create 23 in
  let clients = Array.of_list (List.map (fun r -> r.arrival.Scenario.client) recorded) in
  Timer.per_call clients (fun client -> Core.Overlay.Redirector.pick redirector ~spread:2 ~rng ~client ())

let sha256_us recorded answers =
  let keys = Array.of_list (List.map (fun r -> cache_key r.request) recorded) in
  let bodies =
    Array.of_list
      (List.map (fun (_, resp) -> Core.Http.Body.to_string resp.Message.resp_body) (List.filteri (fun i _ -> i < 32) answers))
  in
  let key_us = Timer.per_call keys Core.Crypto.Sha256.digest in
  let kib = Array.fold_left (fun acc b -> acc +. float_of_int (String.length b)) 0.0 bodies /. 1024.0 in
  let body_us = Timer.per_call bodies Core.Crypto.Sha256.digest in
  (key_us, if kib > 0.0 then body_us *. float_of_int (Array.length bodies) /. kib else 0.0)

(* The episode's answers replayed through a fresh cache of the edge
   node's size on every pass: look up, insert on a miss. *)
let cache_us (inst : Scenario.instance) answers =
  let edge = match answers with (r, _) :: _ -> r.arrival.Scenario.edge | [] -> "" in
  let cfg =
    match List.find_opt (fun n -> Node.name n = edge) (Array.to_list inst.Scenario.proxies) with
    | Some node -> Node.config node
    | None -> Config.default
  in
  let ops =
    Array.of_list
      (List.map (fun (r, resp) -> (r.at, cache_key r.request, Message.copy_response resp)) answers)
  in
  let cache = ref (Core.Cache.Http_cache.create ~max_bytes:cfg.Config.cache_bytes ()) in
  let lookup_us = ref 0.0 and lookups = ref 0 and insert_us = ref 0.0 and inserts = ref 0 in
  ignore
    (Timer.per_call
       ~before_pass:(fun () ->
         cache := Core.Cache.Http_cache.create ~max_bytes:cfg.Config.cache_bytes ())
       ops
       (fun (now, key, resp) ->
         let t0 = Timer.now_ns () in
         let hit = Core.Cache.Http_cache.lookup !cache ~now ~key in
         let t1 = Timer.now_ns () in
         lookup_us := !lookup_us +. Timer.us_between t0 t1;
         incr lookups;
         if Option.is_none hit then begin
           let expiry = Message.response_expiry ~now resp in
           let t2 = Timer.now_ns () in
           Core.Cache.Http_cache.insert !cache ~now ~key ~expiry resp;
           insert_us := !insert_us +. Timer.us_between t2 (Timer.now_ns ());
           incr inserts
         end));
  let per total count = if count = 0 then 0.0 else total /. float_of_int count in
  (per !lookup_us !lookups, per !insert_us !inserts)

(* Wire sizes of the recorded exchanges, the request alone and request
   plus response, and URL parsing. *)
let http_us answers =
  let pairs = Array.of_list (List.map (fun (r, resp) -> (r.request, resp)) answers) in
  let request_wire = Timer.per_call (Array.map fst pairs) Core.Http.Codec.request_wire_size in
  let wire =
    Timer.per_call pairs (fun (req, resp) ->
        Core.Http.Codec.request_wire_size req + Core.Http.Codec.response_wire_size resp)
  in
  let urls = Array.map (fun (req, _) -> Core.Http.Url.to_string req.Message.url) pairs in
  (request_wire, wire, Timer.per_call urls Core.Http.Url.parse)

(* The SIMM stage the edge node builds from [Simm.nakika_js], between
   the default walls, executed on the recorded SIMM requests with a
   stub content handler that returns what the origin serves for them. *)
let pipeline_us simm_requests =
  let module Simm = Core.Workload.Simm in
  let module Stage = Core.Pipeline.Stage in
  let module Pipeline = Core.Pipeline.Pipeline in
  let host = Core.Vocab.Hostcall.stub ~site:Simm.host () in
  let stage url source =
    match Stage.of_script ~url ~host ~lint:`Off ~source () with
    | Ok s -> s
    | Error e -> failwith ("perfbench: SIMM stage: " ^ e)
  in
  let client_wall =
    stage Pipeline.well_known_client_wall Core.Pipeline.Walls.default_client_wall
  in
  let server_wall =
    stage Pipeline.well_known_server_wall Core.Pipeline.Walls.default_server_wall
  in
  let site_url = Printf.sprintf "http://%s/nakika.js" Simm.host in
  let site = stage site_url Simm.nakika_js in
  let load_stage url =
    if url = Pipeline.well_known_client_wall then Some client_wall
    else if url = Pipeline.well_known_server_wall then Some server_wall
    else if url = site_url then Some site
    else None
  in
  let lecture (req : Message.request) =
    Scanf.sscanf req.Message.url.Core.Http.Url.path "/content/m%d/lec%d.xml" (fun m k ->
        (m, k, Option.get (Core.Http.Url.query_get req.Message.url "student")))
  in
  let video = String.make Simm.video_bytes 'v' in
  let origin_response req =
    if Simm.is_video req then
      Message.response ~headers:[ ("Content-Type", "video/nkv") ] ~body:video ()
    else
      let module_, lecture, student = lecture req in
      Message.response
        ~headers:[ ("Content-Type", "text/xml"); ("Cache-Control", "max-age=120") ]
        ~body:(Simm.lecture_xml ~module_ ~lecture ~student)
        ()
  in
  let inputs = Array.of_list (List.map (fun req -> (req, origin_response req)) simm_requests) in
  let execute (req, resp) =
    Pipeline.execute ~load_stage ~fetch:(fun _ -> Message.copy_response resp) (Message.copy_request req)
  in
  (* The replay must do the edge's real work: a lecture comes out as the
     page the single-server deployment would have rendered. *)
  (match Array.to_list inputs |> List.find_opt (fun (req, _) -> not (Simm.is_video req)) with
   | None -> ()
   | Some ((req, _) as input) ->
     let module_, lecture, student = lecture req in
     if
       Core.Http.Body.to_string (execute input).Pipeline.response.Message.resp_body
       <> Simm.render_html ~module_ ~lecture ~student
     then failwith "perfbench: the pipeline replay does not render the SIMM lecture");
  let execute_us = Timer.per_call inputs execute in
  let match_us = Timer.per_call (Array.map fst inputs) (Stage.select site) in
  (execute_us, match_us)

let resource_us recorded (latencies : float array) =
  let module Hedge = Core.Resource.Hedge in
  let module Deadline = Core.Resource.Deadline in
  let histogram = Metrics.Histogram.create () in
  Array.iter (Metrics.Histogram.observe histogram) latencies;
  let hedge = Hedge.create ~rate:Hedge.default_rate () in
  let hedge_us =
    Timer.per_call (Array.make 1024 ()) (fun () ->
        Hedge.note_primary hedge;
        ignore (Hedge.delay ~histogram ~fallback:0.25 ());
        Hedge.try_hedge hedge)
  in
  let inputs = Array.of_list (List.map (fun r -> (r.at, Message.copy_request r.request)) recorded) in
  let deadline_us =
    Timer.per_call inputs (fun (now, req) ->
        match Deadline.admit ~now ~budget:2.5 req with
        | None -> ()
        | Some d ->
          ignore (Deadline.expired d ~now);
          ignore (Deadline.clamp d ~now 1.0);
          Deadline.stamp d ~now req)
  in
  (hedge_us, deadline_us)

let telemetry_us () =
  let tracer = Tracer.create ~clock:(fun () -> 0.0) () in
  let root = ref (Tracer.start_trace tracer "request") in
  let span_us =
    Timer.per_call
      ~before_pass:(fun () ->
        Tracer.finish tracer !root;
        root := Tracer.start_trace tracer "request")
      (Array.make 1024 ())
      (fun () -> Tracer.finish tracer (Tracer.start_span tracer ~parent:!root ~attrs:[ ("hit", "true") ] "cache-lookup"))
  in
  let m = Metrics.create () in
  let labels = [ ("site", "www.crowd.example") ] in
  let metric_op_us =
    Timer.per_call (Array.init 1024 (fun i -> i land 1 = 0)) (fun counter ->
        if counter then Metrics.incr m ~labels "site.requests"
        else Metrics.observe m ~labels "site.latency" 0.002)
  in
  (span_us, metric_op_us)

(* --- the ledger ------------------------------------------------------------ *)

type row = {
  layer : string;
  nested_in : string option; (* shown for its share, not added again *)
  calls : float; (* per request *)
  us_per_req : float;
}

type t = {
  rows : row list;
  metrics : (string * float * string) list; (* name, value, unit *)
  measured : float;
  attributed : float;
  tracing_overhead : float;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [untraced_rate] is the median raw rate of the run's untraced episodes
   and [untraced_calibrated] the same at the calibration speed; [gc] is
   their median minor/promoted words and major collections per request. *)
let build ~untraced_rate ~untraced_calibrated ~gc:(minor, promoted, majors)
    (e : Scenario.episode) r =
  let n = float_of_int e.Scenario.issued in
  let count k = List.assoc k e.Scenario.counts in
  let per_req k = count k /. n in
  let recorded = recorded r and answers = answered r in
  let inst = e.Scenario.instance in
  (* nk_sim *)
  let steps = Timer.sorted_copy (Array.sub r.steps 0 r.nsteps) in
  let mean_depth = int_of_float (ratio r.depth_sum (float_of_int r.nsteps)) in
  let sched_us = schedule_step_us ~depth:mean_depth in
  let events = per_req "sim.events" in
  (* nk_overlay and nk_crypto *)
  let get_us, put_us = dht_us inst recorded in
  let pick_us = redirector_pick_us inst recorded in
  let key_us, kb_us = sha256_us recorded answers in
  let gets = per_req "dht.gets" and puts = per_req "dht.puts" in
  let picks = float_of_int r.picks /. n in
  (* nk_cache *)
  let lookup_us, insert_us = cache_us inst answers in
  let lookups = per_req "cache.hits" +. per_req "cache.misses" in
  let inserts = per_req "cache.insertions" in
  (* nk_http *)
  let request_wire_us, wire_us, parse_us = http_us answers in
  let exchanges = 1.0 +. per_req "origin-fetches" +. per_req "peer-fetches" in
  (* nk_pipeline: a workload that recorded no SIMM request runs no
     script, so there is nothing to replay. *)
  let execute_us, match_us =
    match
      List.filter
        (fun r -> r.request.Message.url.Core.Http.Url.host = Core.Workload.Simm.host)
        recorded
    with
    | [] -> (0.0, 0.0)
    | simm -> pipeline_us (List.map (fun r -> r.request) simm)
  in
  let executions = per_req "pipeline.passes" in
  (* nk_resource *)
  let hedge_us, deadline_us = resource_us recorded e.Scenario.latencies in
  let hedge_calls = per_req "hedge.primaries" and deadline_calls = per_req "deadline.requests" in
  (* nk_telemetry *)
  let span_us, metric_op_us = telemetry_us () in
  let spans_per_trace =
    let spans, traces =
      Array.fold_left
        (fun (s, t) node ->
          List.fold_left
            (fun (s, t) tr -> (s + List.length tr.Tracer.spans, t + 1))
            (s, t)
            (Tracer.traces (Node.tracer node)))
        (0, 0) inst.Scenario.proxies
    in
    ratio (float_of_int spans) (float_of_int traces)
  in
  let spans = spans_per_trace *. per_req "tracer.traces" in
  let metric_ops = per_req "metric.ops" in
  (* nk_node: the synchronous part of Cluster.fetch, less the redirector
     pick and the request's wire size it contains (charged to nk_overlay
     and nk_http). *)
  let fetch_call_us = ratio r.fetch_us (float_of_int r.fetches) in
  let row ?nested_in layer calls us_per_req = { layer; nested_in; calls; us_per_req } in
  let rows =
    [
      row "nk_sim" events (events *. sched_us);
      row "nk_overlay" (gets +. puts +. picks) ((gets *. get_us) +. (puts *. put_us) +. (picks *. pick_us));
      row ~nested_in:"nk_overlay" "nk_crypto" (gets +. puts) ((gets +. puts) *. key_us);
      row "nk_cache" (lookups +. inserts) ((lookups *. lookup_us) +. (inserts *. insert_us));
      row "nk_http" (exchanges +. 1.0) ((exchanges *. wire_us) +. parse_us);
      row "nk_pipeline" executions (executions *. execute_us);
      row ~nested_in:"nk_pipeline" "policy_match" (3.0 *. executions) (3.0 *. executions *. match_us);
      row "nk_resource" (hedge_calls +. deadline_calls)
        ((hedge_calls *. hedge_us) +. (deadline_calls *. deadline_us));
      row "nk_telemetry" (spans +. metric_ops) ((spans *. span_us) +. (metric_ops *. metric_op_us));
      row "nk_node" 1.0
        (Float.max 0.0 (fetch_call_us -. (picks *. pick_us) -. request_wire_us));
    ]
  in
  let measured = ratio 1e6 untraced_rate in
  let attributed =
    List.fold_left (fun acc row -> if row.nested_in = None then acc +. row.us_per_req else acc) 0.0 rows
  in
  (* Both rates at the calibration speed: the host may have changed speed
     between the untraced episodes and the traced one. *)
  let traced_calibrated =
    ratio n e.Scenario.wall_s *. e.Scenario.gauge_s /. Timer.reference_nominal_s
  in
  let tracing_overhead = ratio traced_calibrated untraced_calibrated in
  let m name value unit_ = (name, value, unit_) in
  let layer_cost name =
    m (name ^ ".us_per_req") (List.find (fun row -> row.layer = name) rows).us_per_req "us"
  in
  let metrics =
    [
      m "nk_sim.events_per_req" events "count";
      m "nk_sim.events_per_s" (events *. untraced_rate) "1/s";
      m "nk_sim.step_us.p50" (Timer.percentile steps 50.0) "us";
      m "nk_sim.step_us.p99" (Timer.percentile steps 99.0) "us";
      m "nk_sim.queue_depth.max" (float_of_int r.depth_max) "count";
      m "nk_sim.schedule_step_us" sched_us "us";
      layer_cost "nk_sim";
      m "nk_overlay.dht_gets_per_req" gets "count";
      m "nk_overlay.dht_puts_per_req" puts "count";
      m "nk_overlay.dht_hops_mean" (ratio (count "dht.hops.sum") (count "dht.hops.count")) "count";
      m "nk_overlay.sloppy_hit_ratio" (ratio (count "dht.sloppy_hits") (count "dht.gets")) "ratio";
      m "nk_overlay.dht_get_us" get_us "us";
      m "nk_overlay.dht_put_us" put_us "us";
      m "nk_overlay.redirector_pick_us" pick_us "us";
      layer_cost "nk_overlay";
      m "nk_crypto.sha256_key_us" key_us "us";
      m "nk_crypto.sha256_kb_us" kb_us "us";
      layer_cost "nk_crypto";
      m "nk_cache.hit_ratio" (ratio (count "cache.hits") (count "cache.hits" +. count "cache.misses")) "ratio";
      m "nk_cache.insertions_per_req" inserts "count";
      m "nk_cache.evictions_per_req" (per_req "cache.evictions") "count";
      m "nk_cache.lookup_us" lookup_us "us";
      m "nk_cache.insert_us" insert_us "us";
      layer_cost "nk_cache";
      m "nk_http.exchanges_per_req" exchanges "count";
      m "nk_http.wire_size_us" wire_us "us";
      m "nk_http.url_parse_us" parse_us "us";
      layer_cost "nk_http";
      m "nk_pipeline.executions_per_req" executions "count";
      m "nk_pipeline.fuel_per_req" (per_req "script.fuel") "count";
      m "nk_pipeline.compile_hit_ratio"
        (ratio (count "compile.hits") (count "compile.hits" +. count "compile.misses"))
        "ratio";
      m "nk_pipeline.execute_us" execute_us "us";
      m "nk_pipeline.policy_match_us" match_us "us";
      layer_cost "nk_pipeline";
      m "nk_resource.admission_sheds_per_req" (per_req "admission.sheds") "count";
      m "nk_resource.hedges_per_req" (per_req "hedge.issued") "count";
      m "nk_resource.hedge_win_ratio" (ratio (count "hedge.wins") (count "hedge.issued")) "ratio";
      m "nk_resource.deadline_expired_per_req" (per_req "deadline.expired") "count";
      m "nk_resource.breaker_opens" (count "breaker.opens") "count";
      m "nk_resource.hedge_decision_us" hedge_us "us";
      m "nk_resource.deadline_check_us" deadline_us "us";
      layer_cost "nk_resource";
      m "nk_telemetry.spans_per_req" spans "count";
      m "nk_telemetry.span_us" span_us "us";
      m "nk_telemetry.metric_op_us" metric_op_us "us";
      layer_cost "nk_telemetry";
      m "nk_node.fetch_call_us" fetch_call_us "us";
      layer_cost "nk_node";
      m "gc.minor_words_per_req" minor "words";
      m "gc.promoted_words_per_req" promoted "words";
      m "gc.major_collections_per_kreq" majors "count";
      m "ledger.measured_us_per_req" measured "us";
      m "ledger.attributed_us_per_req" attributed "us";
      m "ledger.unattributed_us_per_req" (measured -. attributed) "us";
      m "ledger.tracing_overhead" tracing_overhead "ratio";
    ]
  in
  { rows; metrics; measured; attributed; tracing_overhead }

(* --- the report ------------------------------------------------------------- *)

let print_table ~workload t =
  Printf.printf "\nledger: %s (us of wall time per simulated request)\n" workload;
  Printf.printf "  %-26s %10s %10s %10s %7s\n" "layer" "calls/req" "us/call" "us/req" "share";
  let share us = 100.0 *. ratio us t.measured in
  List.iter
    (fun row ->
      let label =
        match row.nested_in with
        | None -> row.layer
        | Some parent -> Printf.sprintf "  %s (in %s)" row.layer parent
      in
      Printf.printf "  %-26s %10.3f %10.3f %10.3f %6.1f%%\n" label row.calls
        (ratio row.us_per_req row.calls) row.us_per_req (share row.us_per_req))
    t.rows;
  let unattributed = t.measured -. t.attributed in
  Printf.printf "  %-26s %10s %10s %10.3f %6.1f%%\n" "unattributed" "" "" unattributed
    (share unattributed);
  Printf.printf "  %-26s %10s %10s %10.3f %6.1f%%\n" "measured (untraced)" "" "" t.measured 100.0;
  Printf.printf
    "  tracing overhead: the traced episode ran at %.3f of the untraced rate (both calibrated)\n"
    t.tracing_overhead

(* The split the layer map predicts: no script runs outside simm-edge,
   and the overlay is close to free on the single-proxy SIMM deployment. *)
let check_layer_map ~workload t =
  let cost layer = (List.find (fun row -> row.layer = layer) t.rows).us_per_req in
  let share layer = ratio (cost layer) t.measured in
  let verdict ok claim =
    Printf.printf "  layer map: %s -> %s\n" claim
      (if ok then "as predicted" else "NOT as predicted: the layer map is wrong here")
  in
  match workload with
  | "simm-edge" ->
    verdict (share "nk_overlay" < 0.05) "nk_overlay is near 0 on simm-edge (under 5% of the cost)"
  | _ ->
    verdict (cost "nk_pipeline" = 0.0) (Printf.sprintf "nk_pipeline is 0 on %s" workload)
