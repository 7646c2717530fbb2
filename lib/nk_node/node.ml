(* The edge node: [handle] mediates a request and hands it to a phase
   module; [create] wires the node into the simulated web. *)

include Edge

(* Admitted execution: offer the request to admission control (the
   host's CPU backlog is the queueing delay a newly admitted request
   would see) and, once admitted, run [body] in its own cothread under
   the request's root phase. However the pipeline ends, the admission
   slot is released and the span finished exactly once; [on_done] gets
   the pipeline's result after [respond] has counted it and cut the
   [range], if any, out of the response. *)
let run_admitted t ctx ~site ~span:(span_name, attrs) ?range req ~shed body ~on_done
    ~on_error =
  let verdict =
    match t.admission with
    | None -> Nk_resource.Admission.Admitted
    | Some adm ->
      Nk_resource.Admission.offer adm ~site ~queue_delay:(Nk_sim.Net.cpu_backlog t.net t.host)
  in
  match verdict with
  | Nk_resource.Admission.Shed { retry_after; reason } ->
    shed ~retry_after ("admission-" ^ reason)
  | Nk_resource.Admission.Admitted ->
    let release () =
      Option.iter (fun adm -> Nk_resource.Admission.release adm ~site) t.admission
    in
    serve t ctx span_name req ~attrs
      (fun rctx ->
        match body rctx with
        | (resp, _, _) as result ->
          release ();
          respond t rctx.span ?range resp;
          Some result
        | exception exn ->
          release ();
          Counter.incr t.metrics Meter.script_errors;
          Logs.warn (fun m ->
              m "[%s] %s pipeline error: %s" (name t) span_name (Printexc.to_string exn));
          set_attr rctx.span "error" Printexc.to_string exn;
          None)
      (function Some result -> on_done result | None -> on_error ())

(* The receiver side of an offload. It sits here rather than in
   [Offload_side] because it runs the request through [run_admitted]
   and [Stages.process]. *)
let handle_offload_request t d ~payload =
  match Nk_diffusion.Offload.decode_request_envelope payload with
  | Error msg ->
    Logs.debug (fun m -> m "[%s] undecodable offload request: %s" (name t) msg)
  | Ok env -> (
    let site = env.Nk_diffusion.Offload.site in
    let reject reason =
      Counter.incr_at t.metrics Meter.offload_rejects reason;
      Nk_diffusion.Offload.reply d.offload ~to_:env (Nk_diffusion.Offload.Rejected reason)
    in
    (* The sender addressed an incarnation of us that no longer exists:
       whatever it believed about our load died with it. *)
    if env.Nk_diffusion.Offload.target_incarnation <> Nk_sim.Net.incarnation t.net t.host then
      reject "incarnation"
    else if Control.ban t.controls ~site > 0.0 then
      reject "banned-site"
    else if pressure t >= d.policy.high_water then reject "pressure"
    else
      let req = env.Nk_diffusion.Offload.request in
      (* A doomed budget is rejected, so the sender falls back (its
         local queue may be shorter). *)
      match carried_deadline t req ~spent:"deadline-expired" ~late:"deadline-queue" with
      | _, Some reason ->
        Counter.incr_at t.metrics Meter.deadline_expired "offload";
        reject reason
      | deadline, None ->
        run_admitted t (arrival t deadline) ~site
          ~span:("offload-request", [ ("origin", env.Nk_diffusion.Offload.origin_node) ])
          req
          ~shed:(fun ~retry_after:_ reason -> reject reason)
          (fun ctx ->
            Offload_side.resolve_offload_stage t d env;
            Stages.process t ctx req)
          ~on_done:(fun (resp, fuel, heap) ->
            Nk_diffusion.Offload.reply d.offload ~to_:env
              (Nk_diffusion.Offload.Executed { response = resp; fuel; heap }))
          ~on_error:(fun () -> reject "error"))

(* A request answered without running still gets a one-span trace:
   admission decisions are part of "where did this request's time go?". *)
let refused t req ~outcome ~status =
  let ctx = arrival t None in
  phase t ctx "request"
    ~attrs:(request_attrs ctx req [ ("outcome", outcome); ("status", status) ])
    ignore

let handle t (req : Nk_http.Message.request) k =
  Counter.incr t.metrics Meter.requests;
  (* Peer requests serve straight from cache/origin: no pipeline, no
     further DHT consultation (avoids routing loops). *)
  if Nk_http.Message.req_header req Fetch.peer_header <> None then begin
    (* A doomed budget gets its 504 now, freeing the requester to try
       its next candidate within the budget. *)
    match carried_deadline t req ~spent:"peer" ~late:"peer-queue" with
    | _, Some at ->
      let resp = deadline_expired_response t ~at in
      respond t None resp;
      k resp
    | deadline, None ->
      serve t (arrival t deadline) "peer-request" req ~attrs:[]
        (fun ctx ->
          match Fetch.content_fetch t ~allow_peers:false ctx req with
          | resp ->
            respond t ctx.span resp;
            resp
          | exception _ ->
            set_attr ctx.span "error" Fun.id "true";
            Nk_http.Message.error_response 500)
        k
  end
  else begin
    (* Strip the .nakika.net suffix clients use to reach us (§3). *)
    (match Nk_http.Url.of_nakika req.Nk_http.Message.url with
     | Some origin -> req.Nk_http.Message.url <- origin
     | None -> ());
    let site = Nk_http.Url.site req.Nk_http.Message.url in
    (* With [retry_after], the 503 tells the client when trying again
       might actually succeed. *)
    let reject ?retry_after outcome =
      refused t req ~outcome ~status:"503";
      k
        (match retry_after with
         | Some s -> retry_after_response s
         | None -> Nk_http.Message.error_response 503)
    in
    let ban = Control.ban t.controls ~site in
    if ban > 0.0 then begin
      Counter.incr t.metrics Meter.dropped_termination;
      reject ~retry_after:ban "banned-site"
    end
    else if Control.throttled t.controls ~rng:t.rng ~site then begin
      Counter.incr t.metrics Meter.rejected_throttle;
      reject "rejected-throttle"
    end
    else begin
      (* Tail tolerance: the request's deadline budget — minted here
         from [request_deadline], or carried in from an upstream
         Na Kika node, whichever is tighter. [None] (the default
         config, no header) leaves every downstream path exactly as it
         was before deadlines existed. *)
      let deadline =
        Nk_resource.Deadline.admit ~now:(now t) ~budget:t.cfg.Config.request_deadline req
      in
      let ctx = arrival t deadline in
      (* §3.1: a Range request is processed on the entire instance (the
         pipeline may transcode it); the requested slice is cut out only
         for the final client response. *)
      let range = Option.bind (Nk_http.Message.req_header req "Range") Nk_http.Range.parse in
      let local () =
        run_admitted t ctx ~site ~span:("request", []) ?range req
          ~shed:(fun ~retry_after outcome -> reject ~retry_after outcome)
          (fun ctx -> Stages.process t ctx req)
          ~on_done:(fun (resp, _fuel, _heap) -> k resp)
          ~on_error:(fun () -> k (Nk_http.Message.error_response 500))
      in
      if deadline_expired t deadline then begin
        (* Zero-remaining admission: the budget was spent before we
           could do anything — answer the 504 without taking a queue
           slot or consulting the diffusion plan. *)
        refused t req ~outcome:"deadline-admission" ~status:"504";
        k (deadline_expired_response t ~at:"admission")
      end
      else
        (* Proactive diffusion sits after quarantine/throttle but before
           admission: an offloaded request never takes a local queue slot,
           which is exactly the relief a pressured node needs. *)
        match Offload_side.offload_plan t ~site with
        | None -> local ()
        | Some plan -> Offload_side.attempt_offload t ctx ~site ~plan ~range req k ~fallback:local
    end
  end

(* A second answer to one request is a node bug. It is raised from a
   fresh event, so it reaches [Sim.run] instead of the [on_error] of
   whichever cothread made the call. *)
let answer_once t (req : Nk_http.Message.request) k =
  let answered = ref false in
  fun resp ->
    if !answered then
      Nk_sim.Sim.schedule t.sim ~delay:0.0 (fun () ->
          invalid_arg
            (Printf.sprintf "Node %s answered %s twice" (name t)
               (Nk_http.Url.to_string req.Nk_http.Message.url)))
    else begin
      answered := true;
      k resp
    end

(* Soft-state maintenance: DHT announcements are TTL'd ([dht_ttl]),
   typically shorter than cached entries' lifetimes; re-announce fresh
   cache contents so cooperative caching keeps finding them (Coral-style
   refresh). *)
let start_reannouncer t dht =
  Nk_sim.Sim.every t.sim ~period:(Float.max 5.0 (t.cfg.Config.dht_ttl /. 2.0)) (fun () ->
      Nk_cache.Http_cache.fold_fresh t.cache ~now:(now t) ~init:()
        ~f:(fun () key expiry ->
          Fetch.announce t dht ~key:(lazy (Nk_overlay.Dht.Key.of_string key)) ~expiry))

let start_log_poster t =
  Nk_sim.Sim.every t.sim ~period:30.0 (fun () ->
      Hashtbl.iter
        (fun site url ->
          match Hashtbl.find_opt t.log_entries site with
          | Some entries when !entries <> [] ->
            let body = String.concat "\n" (List.rev !entries) in
            entries := [];
            let req = Nk_http.Message.request ~meth:Nk_http.Method_.POST ~body url in
            Nk_sim.Httpd.fetch t.web ~from:t.host req (fun _ ->
                Counter.incr t.metrics Meter.log_posts)
          | _ -> ())
        t.log_urls)

(* The node's one health tick per report interval: its load view is
   computed once, published as [health.*] gauges (for [nakika stats
   --health] and merged benchmark registries) and reported to the
   redirector with the liveness incarnation, so a report from before a
   crash can't shadow the restarted node's view. The report carries the
   node's pressure when it runs diffusion; the other diffusion nodes
   read their offload candidates from the same table. A crashed node
   reports nothing: the redirector's own [host_down] filter covers the
   gap. *)
let start_health_tick t =
  let was_down = ref false in
  Nk_sim.Sim.every t.sim ~period:health_report_interval (fun () ->
      let down = Nk_sim.Net.host_down t.net t.host in
      (* Requests admitted before a crash died with the host: their
         queue slots must not haunt admission after restart. *)
      if !was_down && not down then
        Option.iter Nk_resource.Admission.reset t.admission;
      was_down := down;
      if not down then begin
        let h = health t in
        let pressure = Option.map (fun _ -> pressure t) t.diffusion in
        let set = Gauge.set t.metrics in
        set Meter.queue_delay h.queue_delay;
        set Meter.shed_rate h.shed_rate;
        set Meter.open_breakers (float_of_int (List.length h.open_breakers));
        set Meter.quarantined_sites (float_of_int (List.length h.quarantined));
        Option.iter (set Meter.pressure) pressure;
        Nk_overlay.Redirector.report t.redirector t.host
          ~incarnation:(Nk_sim.Net.incarnation t.net t.host)
          ?pressure ~queue_delay:h.queue_delay ~shed_rate:h.shed_rate ()
      end)

let create ~web ~host ~redirector ~dht ~bus ?(config = Config.default) () =
  let net = Nk_sim.Httpd.net web in
  let sim = Nk_sim.Net.sim net in
  let clock () = Nk_sim.Sim.now sim in
  let metrics = Nk_telemetry.Metrics.create () in
  let node_name = Nk_sim.Net.host_name host in
  (* Startup validation with the same checker core the provisioning
     verifier runs: a node never silently accepts inverted waters, a
     non-positive admission capacity, or an oversubscribed share table
     — it refuses to construct. *)
  (match Config.validate config with
  | [] -> ()
  | problems ->
    invalid_arg
      (Printf.sprintf "Node.create %s: invalid config: %s" node_name
         (String.concat "; " problems)));
  let diffusion =
    Option.map
      (fun policy ->
        {
          policy;
          offload =
            Nk_diffusion.Offload.create ~name:node_name
              ~incarnation:(fun () -> Nk_sim.Net.incarnation net host)
              (* Non-daemon: a pending offload's timeout is the fallback
                 guarantee, so it must fire even when the target's crash
                 has left no other events (a daemon timer would let the
                 simulation drain and strand the request). *)
              ~schedule:(fun delay k -> Nk_sim.Sim.schedule sim ~delay k)
              ~publish:(fun ~topic ~payload ->
                Nk_replication.Message_bus.publish bus ~from:node_name ~topic ~payload)
              ~metrics;
        })
      config.Config.diffusion
  in
  let stage_cache = Nk_cache.Memo_cache.create () in
  let t =
    {
      web;
      net;
      sim;
      host;
      (* Cooperative caching is on exactly when the node holds the DHT. *)
      dht = (if config.Config.enable_dht then Some dht else None);
      bus;
      redirector;
      cfg = config;
      rng = Nk_util.Prng.create (Stages.script_seed + String.length (Nk_sim.Net.host_name host));
      cache = Nk_cache.Http_cache.create ~max_bytes:config.Config.cache_bytes ~metrics ();
      stage_cache;
      negative = Nk_cache.Memo_cache.create ();
      controls =
        (if config.Config.enable_resource_controls then
           Some
             (Control.start config.Config.quarantine ~net ~host ~clock ~metrics
                ~kill_stages:(Stages.kill_stages stage_cache))
         else None);
      admission =
        Option.map
          (fun c -> Nk_resource.Admission.create c ~clock ~metrics)
          config.Config.admission;
      diffusion;
      upstream =
        Nk_resource.Upstream.create config.Config.breaker
          ~retry_ratio:config.Config.retry_budget_ratio ~clock ~metrics;
      hedge =
        (if config.Config.enable_hedging then
           Some (Nk_resource.Hedge.create ~rate:config.Config.hedge_rate ~metrics ())
         else None);
      store = Nk_replication.Store.create ();
      replicas = Hashtbl.create 4;
      log_urls = Hashtbl.create 4;
      log_entries = Hashtbl.create 4;
      metrics;
      tracer = Nk_telemetry.Tracer.create ~clock ();
      active = untraced;
      local_cidrs =
        List.filter_map
          (fun s -> Result.to_option (Nk_http.Ip.cidr_of_string s))
          config.Config.local_clients;
      in_flight = 0;
    }
  in
  Nk_sim.Httpd.serve web ~host ~hostnames:[ Nk_sim.Net.host_name host ] (fun req k ->
      handle t req (answer_once t req k));
  (match t.dht with
   | Some dht ->
     ignore (Nk_overlay.Dht.join dht (name t));
     start_reannouncer t dht
   | None -> ());
  (* The offload protocol rides the bus: each node owns a request topic
     (work addressed to it) and a reply topic (answers to work it
     shipped). Point-to-point semantics over pub/sub, with the bus's
     acked-retry reliability for free. *)
  Option.iter
    (fun d ->
      Nk_replication.Message_bus.attach bus ~name:node_name ~host;
      Nk_replication.Message_bus.subscribe bus ~name:node_name
        ~topic:(Nk_diffusion.Offload.reply_topic node_name)
        ~handler:(fun ~payload ~from:_ ->
          Nk_diffusion.Offload.handle_reply d.offload ~payload);
      Nk_replication.Message_bus.subscribe bus ~name:node_name
        ~topic:(Nk_diffusion.Offload.request_topic node_name)
        ~handler:(fun ~payload ~from:_ -> handle_offload_request t d ~payload))
    t.diffusion;
  start_log_poster t;
  start_health_tick t;
  t
