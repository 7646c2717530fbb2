type stage_entry = { stage : Nk_pipeline.Stage.t; site : string }

(* Proactive computation diffusion (C3PO): the policy settings, the
   neighbor pressure table fed by the cluster's load-report gossip, plus
   the offload protocol instance (envelope codec, pending table, reply
   matching). *)
type diffusion = {
  policy : Nk_diffusion.Policy.config;
  neighbors : Nk_diffusion.Neighbors.t;
  offload : Nk_diffusion.Offload.t;
}

type t = {
  web : Nk_sim.Httpd.t;
  net : Nk_sim.Net.t;
  sim : Nk_sim.Sim.t;
  host : Nk_sim.Net.host;
  dht : Nk_overlay.Dht.t option;
  bus : Nk_replication.Message_bus.t option;
  cfg : Config.t;
  rng : Nk_util.Prng.t;
  cache : Nk_cache.Http_cache.t;
  stage_cache : stage_entry Nk_cache.Memo_cache.t;
  negative : unit Nk_cache.Memo_cache.t;
  accounting : Nk_resource.Accounting.t;
  mutable monitor : Nk_resource.Monitor.t option;
  throttles : (Nk_resource.Resource.t, (string, float) Hashtbl.t) Hashtbl.t;
  (* per resource: site -> reject probability *)
  quarantine : Nk_resource.Quarantine.t;
  (* terminated sites serve escalating, decaying ban windows *)
  admission : Nk_resource.Admission.t option;
  diffusion : diffusion option;
  upstream : Nk_resource.Upstream.t;
  (* per-upstream circuit breakers and the optional retry budget *)
  hedge : Nk_resource.Hedge.t option;
  (* hedged-replica-fetch governor; None = hedging disabled *)
  store : Nk_replication.Store.t;
  replicas : (string, Nk_replication.Replication.node) Hashtbl.t; (* per site *)
  log_urls : (string, string) Hashtbl.t; (* site -> posting URL *)
  log_entries : (string, string list ref) Hashtbl.t;
  metrics : Nk_telemetry.Metrics.t;
  tracer : Nk_telemetry.Tracer.t;
  events : Nk_telemetry.Events.t;
  mutable active_span : Nk_telemetry.Tracer.span option;
  (* The request span of the pipeline currently on the CPU: hosted
     scripts' own fetches (hostcall closures are per-stage, not
     per-request) parent their spans here. Best effort: a pipeline
     suspended on a sub-fetch can interleave with another request. *)
  mutable active_deadline : Nk_resource.Deadline.t option;
  (* Same discipline for the deadline budget of the request on the
     CPU, so hosted scripts' own fetches run under it too. *)
  local_cidrs : Nk_http.Ip.cidr list;
  mutable terminated : string list;
  mutable in_flight : int;
  (* congestion windows *)
  mutable mem_window : float;
  mutable bw_window : float;
  mutable window_start : float;
}

let host t = t.host

let name t = Nk_sim.Net.host_name t.host

let config t = t.cfg

let metrics t = t.metrics

let tracer t = t.tracer

let events t = t.events

let cache t = t.cache

let monitor t = t.monitor

let quarantine t = t.quarantine

let admission t = t.admission

let upstream t = t.upstream

let terminated_sites t = t.terminated

let stage_cache_entries t = Nk_cache.Memo_cache.size t.stage_cache

let now t = Nk_sim.Sim.now t.sim

let peer_header = "X-NK-Peer"

(* The §5.1 CPU cost model; [Config.default_costs] documents it. *)
let costs = Config.default_costs

(* --- tracing helpers ------------------------------------------------ *)

(* Spans are threaded as [span option]: [None] (tracing disabled, or a
   path with no request context) makes every helper a no-op. *)

let in_span t ?parent name attrs f =
  match parent with
  | None -> f None
  | Some p ->
    Nk_telemetry.Tracer.with_span t.tracer ~parent:p ~attrs name (fun s -> f (Some s))

let set_attr span key value =
  match span with Some s -> Nk_telemetry.Tracer.set_attr s key value | None -> ()

let start_request_span t name (req : Nk_http.Message.request) =
  if not t.cfg.Config.enable_tracing then None
  else
    Some
      (Nk_telemetry.Tracer.start_trace t.tracer name
         ~attrs:
           [
             ("url", Nk_http.Url.to_string req.Nk_http.Message.url);
             ("site", Nk_http.Url.site req.Nk_http.Message.url);
           ])

let finish_span t span =
  match span with Some s -> Nk_telemetry.Tracer.finish t.tracer s | None -> ()

(* --- CPU charging (suspends the current cothread) ------------------ *)

let charge_cpu t seconds =
  if seconds > 0.0 then
    Nk_util.Cothread.await (fun k -> Nk_sim.Net.cpu_run t.net t.host ~seconds (fun () -> k ()))

(* CPU that the request consumes without delaying its own response
   (connection bookkeeping, filter teardown): it occupies the CPU and
   thus limits throughput, but overlaps this request's network time. *)
let charge_cpu_background t seconds =
  if seconds > 0.0 then Nk_sim.Net.cpu_run t.net t.host ~seconds (fun () -> ())

(* --- overload resilience --------------------------------------------- *)

type health = {
  queue_delay : float;
  shed_rate : float;
  shedding : bool;
  open_breakers : string list;
  quarantined : string list;
}

let health t =
  {
    queue_delay = Nk_sim.Net.cpu_backlog t.net t.host;
    shed_rate =
      (match t.admission with Some a -> Nk_resource.Admission.shed_rate a | None -> 0.0);
    shedding =
      (match t.admission with Some a -> Nk_resource.Admission.shedding a | None -> false);
    open_breakers = Nk_resource.Upstream.open_breakers t.upstream;
    quarantined = List.map fst (Nk_resource.Quarantine.active t.quarantine);
  }

(* Liveness epoch under fault injection: bumped by every crash/restart
   of this host. Offload envelopes and neighbor observations are
   guarded by it, so nothing from a pre-crash epoch can act. *)
let incarnation t =
  match Nk_sim.Net.faults t.net with
  | Some plan -> Nk_faults.Plan.incarnation plan ~now:(now t) (name t)
  | None -> 0

(* The scalar load signal diffusion decisions run on: admission queue
   delay (CPU backlog), shed rate, and admission-queue occupancy,
   combined so that any one saturating input saturates the whole
   signal. Crosses 0.5 exactly at the admission delay target — the
   diffusion low water sits below that, which is what makes diffusion
   proactive rather than a shedding echo. *)
let pressure t =
  let cfg = Option.value t.cfg.Config.admission ~default:Nk_resource.Admission.default in
  let shed_rate, queue_frac =
    match t.admission with
    | Some adm ->
      ( Nk_resource.Admission.shed_rate adm,
        float_of_int (Nk_resource.Admission.queue_length adm)
        /. float_of_int (max 1 cfg.Nk_resource.Admission.capacity) )
    | None -> (0.0, 0.0)
  in
  Nk_diffusion.Pressure.compute ~target:cfg.Nk_resource.Admission.target
    ~queue_delay:(Nk_sim.Net.cpu_backlog t.net t.host)
    ~shed_rate ~queue_frac

let observe_neighbor t ~name:peer ~pressure ~incarnation ~distance =
  match t.diffusion with
  | None -> ()
  | Some d ->
    if peer <> name t then
      Nk_diffusion.Neighbors.observe d.neighbors ~name:peer ~incarnation ~pressure
        ~distance ~now:(now t)

let retry_after_response ?(status = 503) seconds =
  let resp = Nk_http.Message.error_response status in
  Nk_http.Message.set_resp_header resp "Retry-After"
    (string_of_int (max 1 (int_of_float (Float.ceil seconds))));
  resp

(* --- tail tolerance: deadline budgets ------------------------------- *)

(* Every internal hop runs under the smaller of its per-hop timeout and
   the request's remaining budget: waiting longer than the client will
   is capacity spent on an answer nobody reads. *)
let hop_timeout t deadline timeout =
  match deadline with
  | None -> timeout
  | Some d -> Nk_resource.Deadline.clamp d ~now:(now t) timeout

let deadline_expired t deadline =
  match deadline with
  | Some d -> Nk_resource.Deadline.expired d ~now:(now t)
  | None -> false

(* Ship the remaining budget on an internal request, so the receiver
   runs (and sheds) under it too. *)
let stamp_deadline t deadline req =
  Option.iter (fun d -> Nk_resource.Deadline.stamp d ~now:(now t) req) deadline

(* Receiver-side deadline shed: a carried budget smaller than our
   current queue-delay estimate cannot be served in time, so the
   request is refused now, freeing the sender to try elsewhere within
   its budget. Returns the carried budget and, when the request must be
   shed, [spent] (the budget is already gone) or [late]. *)
let carried_deadline t req ~spent ~late =
  let deadline = Nk_resource.Deadline.of_request ~now:(now t) req in
  let shed =
    match deadline with
    | Some d
      when Nk_resource.Deadline.remaining d ~now:(now t) <= Nk_sim.Net.cpu_backlog t.net t.host
      ->
      Some (if deadline_expired t deadline then spent else late)
    | _ -> None
  in
  (deadline, shed)

(* An expired (or unservable-in-time) budget: count where it died and
   answer an immediate machine-readable 504 — the only useful thing
   left to do with the request is to say so quickly. *)
let deadline_expired_response t ~at =
  Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("at", at) ] "deadline.expired";
  Nk_resource.Deadline.expired_response ~reason:("deadline-" ^ at) ()

(* --- the content handler: cache + DHT + origin --------------------- *)

(* Seconds before giving up on an origin fetch (and degrading to a
   stale copy) and on one cooperative-cache peer (and trying the next);
   on origin failure, a cached copy that expired at most
   [stale_if_error] seconds ago is served (RFC 2616 stale-if-error). *)
let origin_timeout = 10.0
let peer_timeout = 3.0
let stale_if_error = 900.0

let cache_key (req : Nk_http.Message.request) =
  Nk_http.Method_.to_string req.Nk_http.Message.meth
  ^ " "
  ^ Nk_http.Url.to_string req.Nk_http.Message.url

(* Fetch with a deadline, resolving to [None] on timeout. Under fault
   injection the response may never arrive (dropped on the wire, server
   crashed); the timer is a daemon event so pending timeouts never keep
   the simulation alive, and [Cothread.await] ignores whichever of the
   two resumes loses the race. *)
let await_fetch_opt t ~via ~timeout req =
  Nk_util.Cothread.await (fun k ->
      Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:timeout (fun () -> k None);
      let deliver resp = k (Some resp) in
      match via with
      | Some host -> Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:host req deliver
      | None -> Nk_sim.Httpd.fetch t.web ~from:t.host req deliver)

(* [key] is [cache_key req]; [dht_key] is its DHT key, hashed only if
   the response is announced. *)
let insert_if_cacheable t ~key ~dht_key req resp =
  if Nk_http.Message.cacheable req resp then begin
    let expiry = Nk_http.Message.response_expiry ~now:(now t) resp in
    Nk_cache.Http_cache.insert t.cache ~now:(now t) ~key ~expiry resp;
    match (expiry, t.dht) with
    | Some expiry, Some dht when t.cfg.Config.enable_dht ->
      let ttl = Float.min t.cfg.Config.dht_ttl (expiry -. now t) in
      if ttl > 0.0 then
        ignore
          (Nk_overlay.Dht.put_key dht ~now:(now t) ~from:(name t) ~key:(Lazy.force dht_key)
             ~value:(name t) ~ttl)
    | _ -> ()
  end

(* --- tail tolerance: hedged replica fetches -------------------------- *)

(* The hedge delay for peer fetches: the upstream's observed p95 (the
   [fetch.latency] histogram this node records while hedging is
   enabled), bounded by the hop timeout; a quarter of the timeout
   stands in until the histogram has seen enough samples. *)
let hedge_delay t ~timeout =
  Float.min timeout
    (Nk_resource.Hedge.delay
       ?histogram:
         (Nk_telemetry.Metrics.histogram t.metrics
            ~labels:[ ("upstream", "peer") ]
            "fetch.latency")
       ~fallback:(timeout /. 4.0) ())

(* Race a cooperative-cache peer fetch against one hedged backup
   replica. The primary is fetched immediately; if it has not answered
   after [delay] and the governor grants a token, the same request goes
   to [backup] and whichever response arrives first wins — the loser's
   callback is discarded by the [resolved] latch here, and across
   crashes by the net layer's incarnation guard (a response from a
   pre-crash epoch never reaches us at all). Returns the winning
   response ([None] when nothing answered inside [timeout]) plus the
   name of the peer that served it.

   Upstream accounting: the caller accounts the *winning* arm from the
   verified outcome, exactly as on the unhedged path. A losing primary
   settles its [ticket] here — success/failure by status when its
   response straggles in, failure at [timeout] when it never answers —
   so a hedge win can neither mask a dead peer nor strand a half-open
   probe slot. A losing backup never held a ticket and is left alone;
   its late response only counts [hedge.cancelled]. *)
let hedged_peer_fetch t ~hedge ~primary:(peer, peer_host, ticket) ~backup ~delay ~timeout
    ~deadline req =
  Nk_util.Cothread.await (fun resume ->
      let resolved = ref false in
      let primary_done = ref false in
      let winner = ref "" in
      let finish server resp =
        if not !resolved then begin
          resolved := true;
          winner := server;
          resume (resp, server)
        end
      in
      let settle_primary ok =
        if not !primary_done then begin
          primary_done := true;
          if !resolved && !winner <> peer then Nk_resource.Upstream.settle ticket ok
        end
      in
      Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:timeout (fun () ->
          settle_primary false;
          finish peer None);
      let started = now t in
      Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:peer_host req (fun r ->
          Nk_telemetry.Metrics.observe t.metrics
            ~labels:[ ("upstream", "peer") ]
            "fetch.latency"
            (now t -. started);
          settle_primary (r.Nk_http.Message.status < 500);
          finish peer (Some r));
      match backup with
      | None -> ()
      | Some (backup_name, backup_host) ->
        if delay < timeout then
          Nk_sim.Sim.schedule t.sim ~daemon:true ~delay (fun () ->
              if (not !resolved) && Nk_resource.Hedge.try_hedge hedge then begin
                let breq = Nk_http.Message.copy_request req in
                stamp_deadline t deadline breq;
                Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:backup_host breq
                  (fun r ->
                    if !resolved then Nk_resource.Hedge.cancelled hedge
                    else Nk_resource.Hedge.won hedge;
                    finish backup_name (Some r))
              end))

(* Fetch content for [req]: proxy cache, then cooperative cache, then
   origin. Runs inside a cothread. [span] is the request span child
   spans attach to. [deadline] is the request's remaining budget: every
   hop below runs under [min per-hop-timeout remaining]. *)
let content_fetch t ?(allow_peers = true) ?span ?deadline
    (req : Nk_http.Message.request) =
  let key = cache_key req in
  let dht_key = lazy (Nk_overlay.Dht.Key.of_string key) in
  let cached =
    in_span t ?parent:span "cache-lookup" [] (fun sp ->
        let hit = Nk_cache.Http_cache.lookup t.cache ~now:(now t) ~key in
        set_attr sp "hit" (string_of_bool (hit <> None));
        (match hit with
         | Some _ -> charge_cpu t costs.Config.cache_hit
         | None -> ());
        hit)
  in
  match cached with
  | Some resp -> resp
  | None -> (
    let from_origin () =
      if deadline_expired t deadline then deadline_expired_response t ~at:"origin"
      else
      in_span t ?parent:span "origin-fetch" [] (fun osp ->
          (* A stale copy with a validator turns the refetch into a
             conditional GET; a 304 refreshes the entry without moving the
             body again (RFC 2616 revalidation under the web's
             expiration-based consistency model). *)
          let stale = Nk_cache.Http_cache.lookup_stale t.cache ~key in
          let validator =
            match stale with
            | Some old -> (
              match Nk_http.Message.resp_header old "ETag" with
              | Some etag -> Some (("If-None-Match", etag), old)
              | None -> (
                match Nk_http.Message.resp_header old "Last-Modified" with
                | Some lm -> Some (("If-Modified-Since", lm), old)
                | None -> None))
            | None -> None
          in
          let req, validator =
            match validator with
            | Some ((name, value), old) ->
              let creq = Nk_http.Message.copy_request req in
              Nk_http.Message.set_req_header creq name value;
              (creq, Some old)
            | None -> (req, None)
          in
          let do_fetch sp =
            let resp =
              await_fetch_opt t ~via:None
                ~timeout:(hop_timeout t deadline origin_timeout)
                req
            in
            Nk_telemetry.Metrics.incr t.metrics "origin-fetches";
            set_attr sp "status"
              (match resp with
               | Some r -> string_of_int r.Nk_http.Message.status
               | None -> "timeout");
            resp
          in
          (* A tripped breaker short-circuits the fetch entirely: the
             dead origin costs one probe per cooldown, not one
             [origin_timeout] per request. The short-circuited request
             still degrades to a stale copy when one exists. *)
          let origin_key = "origin:" ^ Nk_http.Url.site req.Nk_http.Message.url in
          let resp, short_circuit =
            match Nk_resource.Upstream.acquire t.upstream origin_key with
            | `Reject retry ->
              set_attr osp "breaker" "open";
              (None, Some retry)
            | `Proceed ticket ->
              let attempt () =
                match validator with
                | None -> do_fetch osp
                | Some _ ->
                  in_span t ?parent:osp "revalidation" [] (fun rsp ->
                      let resp = do_fetch rsp in
                      set_attr rsp "not-modified"
                        (string_of_bool
                           (match resp with
                            | Some r -> r.Nk_http.Message.status = 304
                            | None -> false));
                      resp)
              in
              let answered resp =
                match resp with
                | None -> false
                | Some r -> r.Nk_http.Message.status < 500
              in
              let resp = attempt () in
              (* One budgeted retry: a transient origin failure (timeout,
                 5xx) gets a second attempt only while the upstream's
                 retry budget — refilled by its own successes — grants a
                 token and the request's deadline still has time left. *)
              let resp =
                if answered resp then resp
                else
                  match Nk_resource.Upstream.retry t.upstream ?deadline origin_key with
                  | `Granted ->
                    Nk_telemetry.Metrics.incr t.metrics
                      ~labels:[ ("upstream", origin_key) ]
                      "retry.attempts";
                    set_attr osp "retried" "true";
                    attempt ()
                  | `Refused | `Unbudgeted -> resp
              in
              Nk_resource.Upstream.settle ~budget:origin_key ticket (answered resp);
              (resp, None)
          in
          (* Stale-if-error (RFC 2616 §13.1.5 spirit): when the origin
             times out or answers with a server error, a cached copy
             that expired no more than [stale_if_error] seconds ago is
             better than failing the client. The [X-NaKika-Stale]
             header carries the staleness in seconds so clients and
             tests can tell degraded responses apart. *)
          let degrade () =
            match Nk_cache.Http_cache.lookup_stale_entry t.cache ~key with
            | Some (old, expiry)
              when Nk_http.Status.is_success old.Nk_http.Message.status
                   && now t -. expiry <= stale_if_error ->
              let age = Float.max 0.0 (now t -. expiry) in
              Nk_http.Message.set_resp_header old "X-NaKika-Stale"
                (string_of_int (int_of_float age));
              Nk_telemetry.Metrics.incr t.metrics "cache.stale_served";
              set_attr osp "stale" "true";
              Some old
            | _ -> None
          in
          match resp with
          | None -> (
            match degrade () with
            | Some old -> old
            | None -> (
              match short_circuit with
              (* No stale fallback and an open breaker: fail fast with a
                 retry hint instead of pretending we waited. *)
              | Some retry -> retry_after_response retry
              | None -> Nk_http.Message.error_response 504))
          | Some resp when resp.Nk_http.Message.status >= 500 -> (
            match degrade () with
            | Some old -> old
            | None -> resp)
          | Some resp -> (
            match (resp.Nk_http.Message.status, validator) with
            | 304, Some old ->
              Nk_telemetry.Metrics.incr t.metrics "revalidations";
              (match Nk_http.Message.response_expiry ~now:(now t) resp with
               | Some expiry -> Nk_cache.Http_cache.refresh t.cache ~key ~expiry
               | None -> Nk_cache.Http_cache.remove t.cache ~key);
              old
            | _ ->
              insert_if_cacheable t ~key ~dht_key req resp;
              resp))
    in
    match t.dht with
    | Some dht when t.cfg.Config.enable_dht && allow_peers ->
      let result =
        in_span t ?parent:span "dht-lookup" [] (fun sp ->
            let result =
              Nk_overlay.Dht.get_key dht ~now:(now t) ~from:(name t) ~key:(Lazy.force dht_key)
            in
            charge_cpu t
              (float_of_int (max 1 result.Nk_overlay.Dht.hops)
              *. costs.Config.dht_per_hop);
            set_attr sp "hops" (string_of_int result.Nk_overlay.Dht.hops);
            set_attr sp "values" (string_of_int (List.length result.Nk_overlay.Dht.values));
            result)
      in
      let peers =
        List.filter (fun peer -> peer <> name t) result.Nk_overlay.Dht.values
      in
      (* Try up to two announced peers, each under [peer_timeout] (and
         the request's remaining budget); a peer that times out, fails,
         or serves tampered content falls through to the next candidate
         and finally to the origin. *)
      let rec try_peers budget candidates =
        match candidates with
        | _ when deadline_expired t deadline ->
          (* No budget left for a peer hop; [from_origin] answers the
             machine-readable 504. *)
          from_origin ()
        | [] -> from_origin ()
        | _ when budget = 0 -> from_origin ()
        | peer :: rest -> (
          match Nk_resource.Upstream.acquire t.upstream ("peer:" ^ peer) with
          | `Reject _ ->
            (* A peer behind an open breaker is skipped outright — and
               without consuming the budget, so one dead peer doesn't
               halve our cooperative-cache reach. *)
            try_peers budget rest
          | `Proceed ticket -> (
          match Nk_sim.Httpd.resolve t.web peer with
          | None ->
            (* Release the (possibly half-open probe) slot we claimed. *)
            Nk_resource.Upstream.settle ticket false;
            from_origin ()
          | Some peer_host ->
            Nk_telemetry.Metrics.incr t.metrics "dht-hits";
            let peer_resp, served_by =
              in_span t ?parent:span "peer-fetch" [ ("peer", peer) ] (fun psp ->
                  let peer_req = Nk_http.Message.copy_request req in
                  Nk_http.Message.set_req_header peer_req peer_header "1";
                  stamp_deadline t deadline peer_req;
                  let timeout = hop_timeout t deadline peer_timeout in
                  let raw, served_by =
                    match t.hedge with
                    | None ->
                      (await_fetch_opt t ~via:(Some peer_host) ~timeout peer_req, peer)
                    | Some hedge ->
                      (* The backup is the next live replica: the
                         remaining announced holders first, then the
                         key's ring replica set ([Ring.successors]). *)
                      Nk_resource.Hedge.note_primary hedge;
                      let backup =
                        rest @ Nk_overlay.Dht.replica_names dht ~key:(Lazy.force dht_key)
                        |> List.find_opt (fun c -> c <> peer && c <> name t)
                        |> fun c ->
                        Option.bind c (fun c ->
                            Option.map
                              (fun h -> (c, h))
                              (Nk_sim.Httpd.resolve t.web c))
                      in
                      let delay = hedge_delay t ~timeout in
                      set_attr psp "hedge_delay" (Printf.sprintf "%.4f" delay);
                      let resp, server =
                        hedged_peer_fetch t ~hedge ~primary:(peer, peer_host, ticket)
                          ~backup ~delay ~timeout ~deadline peer_req
                      in
                      if server <> peer then set_attr psp "hedge_winner" server;
                      (resp, server)
                  in
                  match raw with
                  | None ->
                    set_attr psp "timeout" "true";
                    (None, served_by)
                  | Some resp ->
                    let verified =
                      match t.cfg.Config.integrity_key with
                      | None -> true
                      | Some key ->
                        (* Peer-served content comes from an untrusted node:
                           check the §6 integrity headers and fall back to the
                           origin on any violation. Content that never carried
                           integrity headers is unprotected (a producer opt-in);
                           stripping attacks are the probabilistic verifier's
                           job, not this check's. *)
                        in_span t ?parent:psp "integrity-verify" [] (fun vsp ->
                            match Nk_integrity.Integrity.verify ~key ~now:(now t) resp with
                            | Ok () ->
                              set_attr vsp "result" "ok";
                              true
                            | Error Nk_integrity.Integrity.Missing_headers ->
                              Nk_telemetry.Metrics.incr t.metrics "integrity-unverified";
                              set_attr vsp "result" "unverified";
                              true
                            | Error violation ->
                              Nk_telemetry.Metrics.incr t.metrics "integrity-violations";
                              set_attr vsp "result" "violation";
                              Logs.warn (fun m ->
                                  m "[%s] integrity violation from %s: %s" (name t) peer
                                    (Nk_integrity.Integrity.violation_to_string violation));
                              false)
                    in
                    set_attr psp "verified" (string_of_bool verified);
                    if verified && Nk_http.Status.is_success resp.Nk_http.Message.status
                    then (Some resp, served_by)
                    else (None, served_by))
            in
            (* Accounting goes to the arm that actually served. A
               winning hedged backup never held a ticket: its outcome
               is recorded without one, and the losing primary's
               ticket is settled by [hedged_peer_fetch]. *)
            let ok = Option.is_some peer_resp in
            if served_by = peer then Nk_resource.Upstream.settle ~budget:"peer" ticket ok
            else Nk_resource.Upstream.record t.upstream ~budget:"peer" ("peer:" ^ served_by) ok;
            match peer_resp with
            | Some resp ->
              Nk_telemetry.Metrics.incr t.metrics "peer-fetches";
              insert_if_cacheable t ~key ~dht_key req resp;
              resp
            | None ->
              (* Trying the next candidate is a retry of the upstream
                 class: under a retry budget it must find a token, or
                 the chain collapses straight to the origin. *)
              if
                budget > 1 && rest <> []
                && Nk_resource.Upstream.retry t.upstream "peer" = `Refused
              then from_origin ()
              else try_peers (budget - 1) rest))
      in
      try_peers 2 peers
    | _ -> from_origin ())

(* --- host capabilities handed to vocabularies ----------------------- *)

let replica t site =
  match (Hashtbl.find_opt t.replicas site, t.bus) with
  | Some r, _ -> Some r
  | None, Some bus ->
    let r =
      Nk_replication.Replication.attach ~bus ~name:(name t) ~host:t.host ~store:t.store ~site
        Nk_replication.Replication.Optimistic
    in
    (* Re-converge after partitions that outlast the bus's retry budget:
       periodically re-broadcast everything this replica knows. *)
    Nk_replication.Replication.start_anti_entropy r;
    Hashtbl.add t.replicas site r;
    Some r
  | None, None -> None

(* Emission control (§3.2): hosted scripts' own web accesses pass the
   server-side administrative wall before leaving the node. The wall
   stage is loaded through the regular cached path; [load_wall] is tied
   in after stage loading is defined. *)
let emission_check t (req : Nk_http.Message.request) ~load_wall =
  match load_wall t with
  | None -> None
  | Some stage -> (
    match Nk_pipeline.Stage.select stage req with
    | None -> None
    | Some policy -> (
      match policy.Nk_policy.Policy.on_request with
      | None -> None
      | Some handler -> (
        match
          Nk_pipeline.Pipeline.run_handler stage ~this_request:req ~response:None handler
        with
        | Ok (Some denial) ->
          Nk_telemetry.Metrics.incr t.metrics "emission-denials";
          Some denial
        | Ok None -> None
        | Error _ -> Some (Nk_http.Message.error_response 500))))

let hostcall t ~site ~load_wall : Nk_vocab.Hostcall.t =
  let vocab_key key = Printf.sprintf "vocab:%s:%s" site key in
  {
    Nk_vocab.Hostcall.now = (fun () -> now t);
    site;
    fetch =
      (fun req ->
        (* Hostcall closures are per-stage, not per-request: parent the
           script's own fetch at whatever request span currently owns
           the CPU (best effort under cothread interleaving). *)
        let resp =
          in_span t ?parent:t.active_span "script-fetch" [ ("site", site) ] (fun sp ->
              match emission_check t req ~load_wall with
              | Some denial ->
                set_attr sp "denied" "true";
                denial
              | None -> content_fetch t ?span:sp ?deadline:t.active_deadline req)
        in
        let bytes = float_of_int (Nk_http.Message.content_length resp) in
        Nk_resource.Accounting.charge t.accounting ~site Nk_resource.Resource.Bandwidth bytes;
        t.bw_window <- t.bw_window +. bytes;
        resp);
    cache_lookup =
      (fun key -> Nk_cache.Http_cache.lookup t.cache ~now:(now t) ~key:(vocab_key key));
    cache_store =
      (fun ~key ~ttl resp ->
        Nk_cache.Http_cache.insert t.cache ~now:(now t) ~key:(vocab_key key)
          ~expiry:(Some (now t +. ttl)) resp);
    log = (fun msg -> Logs.debug (fun m -> m "[%s/%s] %s" (name t) site msg));
    is_local =
      (fun ip_str ->
        match Nk_http.Ip.of_string ip_str with
        | Error _ -> false
        | Ok ip -> List.exists (fun cidr -> Nk_http.Ip.cidr_contains cidr ip) t.local_cidrs);
    congestion =
      (fun resource_name ->
        let resource =
          List.find_opt
            (fun r -> Nk_resource.Resource.to_string r = resource_name)
            Nk_resource.Resource.all
        in
        match resource with
        | Some r -> Nk_resource.Accounting.usage t.accounting ~site r
        | None -> 0.0);
    hard_state_get =
      (fun ~key ->
        match replica t site with
        | Some r -> Nk_replication.Replication.read r ~key
        | None -> Nk_replication.Store.get t.store ~site ~key);
    hard_state_put =
      (fun ~key value ->
        match replica t site with
        | Some r -> Nk_replication.Replication.update r ~key ~value
        | None -> Nk_replication.Store.put t.store ~site ~key value);
    hard_state_delete =
      (fun ~key ->
        match replica t site with
        | Some r -> Nk_replication.Replication.delete r ~key
        | None -> Nk_replication.Store.delete t.store ~site ~key);
    hard_state_keys =
      (fun ~prefix ->
        match replica t site with
        | Some r -> Nk_replication.Replication.keys r ~prefix
        | None -> Nk_replication.Store.keys t.store ~site ~prefix);
    publish =
      (fun ~topic payload ->
        match t.bus with
        | Some bus -> Nk_replication.Message_bus.publish bus ~from:(name t) ~topic ~payload
        | None -> ());
    enable_access_log = (fun ~url -> Hashtbl.replace t.log_urls site url);
  }

(* --- stage loading: fetch, evaluate, cache --------------------------- *)

(* A stage script without explicit expiry stays cached [script_ttl]
   seconds; a site without [nakika.js] (or a failed stage) is
   remembered [negative_ttl]. Every stage's interpreter starts from
   [script_seed]; the node's own rng from it plus its name's length. *)
let script_ttl = 300.0
let negative_ttl = 60.0
let script_seed = 7

let site_of_stage_url url =
  match Nk_http.Url.parse url with
  | Ok u -> Nk_http.Url.site u
  | Error _ -> "unknown"

(* Per-site sandbox caps lowered from a provisioning plan
   ([site "..." { fuel <= N; heap <= N }]): the effective limit is the
   global cap tightened by the first matching site rule. *)
let site_limit overrides ~site ~global =
  match
    List.find_map
      (fun (pattern, v) -> if Nk_resource.Shares.matches ~pattern site then Some v else None)
      overrides
  with
  | Some v -> min global v
  | None -> global

let site_max_fuel t ~site =
  site_limit t.cfg.Config.site_fuel ~site ~global:t.cfg.Config.script_max_fuel

let site_max_heap t ~site =
  site_limit t.cfg.Config.site_heap ~site ~global:t.cfg.Config.script_max_heap

(* Admission of a fetched script body: [Stage.of_script] looks it up in
   the process-wide script cache and lints it under the node's
   [lint_mode]; the node exports the diagnostic counts and the
   compile-cache outcome, and traces the lint (refused under strict
   mode before any script code runs) and the compile. *)
let compile_source t ~span ~url ~site ~source ~host ~max_fuel ~max_heap_bytes ~seed =
  let labels = [ ("site", site) ] in
  (* Whether this script body was already compiled (by this or any other
     simulated node in the process) or cost a fresh parse+compile. *)
  let on_compile_cache outcome =
    match outcome with
    | `Hit -> Nk_telemetry.Metrics.incr t.metrics ~labels "script.compile_cache.hits"
    | `Miss -> Nk_telemetry.Metrics.incr t.metrics ~labels "script.compile_cache.misses"
  in
  let on_lint report =
    in_span t ?parent:span "script.lint" [ ("stage", url) ] (fun sp ->
        let errors = Nk_analysis.Analysis.errors report in
        let warnings = Nk_analysis.Analysis.warnings report in
        set_attr sp "errors" (string_of_int errors);
        set_attr sp "warnings" (string_of_int warnings);
        if errors > 0 then
          Nk_telemetry.Metrics.incr t.metrics ~labels ~by:errors "script.lint.errors";
        if warnings > 0 then
          Nk_telemetry.Metrics.incr t.metrics ~labels ~by:warnings "script.lint.warnings";
        if t.cfg.Config.lint_mode = `Strict && errors > 0 then set_attr sp "rejected" "true")
  in
  in_span t ?parent:span "script.compile" [ ("stage", url) ] (fun _ ->
      Nk_pipeline.Stage.of_script ~url ~host ~max_fuel ~max_heap_bytes ~seed
        ~on_compile_cache ~lint:t.cfg.Config.lint_mode ~on_lint ~source ())

(* Stage installation, shared by every way a stage is made. The node
   joins the site's replication group up front, so updates published
   before its first hard-state access still arrive, and hands [build] a
   hostcall whose fetches pass the server-side wall. A built stage
   folds each request's fuel and heap into the per-site histograms and
   is cached under [url] until the freshness of [response] (the origin
   answer its source came from) or [script_ttl]. A failure is counted,
   logged and negative-cached like any other script error. *)
let rec install_stage t ~url ~site ?response build =
  ignore (replica t site);
  (* The administrative stages themselves are exempt from emission
     control (they *are* the control, and routing them through it would
     recurse). *)
  let load_wall t =
    if url = Nk_pipeline.Pipeline.well_known_server_wall then None
    else load_stage t Nk_pipeline.Pipeline.well_known_server_wall
  in
  match
    build ~host:(hostcall t ~site ~load_wall) ~max_fuel:(site_max_fuel t ~site)
      ~max_heap_bytes:(site_max_heap t ~site) ~seed:script_seed
  with
  | Ok stage ->
    (* Context reuse reports the previous pipeline's consumption. *)
    Nk_script.Interp.set_usage_observer (Nk_pipeline.Stage.context stage)
      (fun ~fuel ~heap ->
        let labels = [ ("site", site) ] in
        if fuel > 0 then
          Nk_telemetry.Metrics.observe t.metrics ~labels "script.fuel" (float_of_int fuel);
        if heap > 0 then
          Nk_telemetry.Metrics.observe t.metrics ~labels "script.heap" (float_of_int heap));
    let expiry =
      match Option.bind response (Nk_http.Message.response_expiry ~now:(now t)) with
      | Some e -> e
      | None -> now t +. script_ttl
    in
    Nk_cache.Memo_cache.put t.stage_cache ~key:url ~expiry { stage; site };
    Ok stage
  | Error msg as e ->
    Nk_telemetry.Metrics.incr t.metrics "script-errors";
    Logs.warn (fun m -> m "[%s] stage %s failed: %s" (name t) url msg);
    Nk_cache.Memo_cache.put t.negative ~key:url
      ~expiry:(now t +. negative_ttl) ();
    e

and load_stage t ?span url =
  match Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url with
  | Some entry ->
    charge_cpu t
      (costs.Config.tree_cached +. costs.Config.context_reuse);
    (* Context reuse resets the usage counters (§4); like the prototype,
       a pipeline suspended mid-request shares the stage context, so the
       reset is best effort. *)
    Nk_script.Interp.reset_usage (Nk_pipeline.Stage.context entry.stage);
    Some entry.stage
  | None -> (
    match Nk_cache.Memo_cache.find t.negative ~now:(now t) url with
    | Some () -> None
    | None -> (
      match Nk_http.Url.parse url with
      | Error _ -> None
      | Ok _ ->
        in_span t ?parent:span "load-stage" [ ("stage", url) ] (fun sp ->
        let req = Nk_http.Message.request url in
        (* Deliberately not under the request's deadline budget: a tight
           budget expiring a script fetch would negative-cache the site
           for [negative_ttl], degrading every later request. *)
        let resp = content_fetch t ?span:sp req in
        if not (Nk_http.Status.is_success resp.Nk_http.Message.status) then begin
          (* Remember that this site publishes no script (§4). *)
          Nk_cache.Memo_cache.put t.negative ~key:url
            ~expiry:(now t +. negative_ttl) ();
          None
        end
        else begin
          let source = Nk_http.Body.to_string resp.Nk_http.Message.resp_body in
          charge_cpu t
            (costs.Config.context_create +. costs.Config.parse_base
            +. (costs.Config.parse_per_byte *. float_of_int (String.length source)));
          let site = site_of_stage_url url in
          Result.to_option
            (install_stage t ~url ~site ~response:resp
               (compile_source t ~span:sp ~url ~site ~source))
        end)))

(* Install a stage straight from a compiled program (the diffusion
   receiver's path: the offload envelope named the script by SHA-256 and
   the compile cache still holds it — no source, no parse, no lint; the
   node that compiled it linted it). *)
let install_stage_from_program t ~url ~site script =
  Result.is_ok
    (install_stage t ~url ~site (fun ~host ~max_fuel ~max_heap_bytes ~seed ->
         charge_cpu t costs.Config.context_create;
         Nk_pipeline.Stage.of_program ~url ~host ~max_fuel ~max_heap_bytes ~seed script))

(* --- request processing ---------------------------------------------- *)

let throttle_fraction t site =
  Hashtbl.fold
    (fun _resource table acc ->
      match Hashtbl.find_opt table site with Some f -> Float.max acc f | None -> acc)
    t.throttles 0.0

let resource_throttles t resource =
  match Hashtbl.find_opt t.throttles resource with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 8 in
    Hashtbl.add t.throttles resource table;
    table

let access_log t ~site ~(req : Nk_http.Message.request) ~(resp : Nk_http.Message.response) =
  if Hashtbl.mem t.log_urls site then begin
    let entry =
      Printf.sprintf "%.3f %s %s %d" (now t)
        (Nk_http.Ip.to_string req.Nk_http.Message.client.Nk_http.Ip.ip)
        (Nk_http.Url.to_string req.Nk_http.Message.url)
        resp.Nk_http.Message.status
    in
    match Hashtbl.find_opt t.log_entries site with
    | Some r -> r := entry :: !r
    | None -> Hashtbl.add t.log_entries site (ref [ entry ])
  end

let account t ~site ~cpu ~heap ~bytes ~elapsed =
  let charge = Nk_resource.Accounting.charge t.accounting ~site in
  charge Nk_resource.Resource.Cpu cpu;
  charge Nk_resource.Resource.Memory heap;
  charge Nk_resource.Resource.Bandwidth bytes;
  charge Nk_resource.Resource.Running_time elapsed;
  charge Nk_resource.Resource.Bytes_transferred bytes;
  t.mem_window <- t.mem_window +. heap;
  t.bw_window <- t.bw_window +. bytes

(* Process one client request inside a cothread; returns the response
   plus the interpreter fuel and heap the pipeline consumed (offload
   replies ship those, so a remote execution stays accountable). *)
let process t ?span ?deadline (req : Nk_http.Message.request) =
  let started = now t in
  let site = Nk_http.Url.site req.Nk_http.Message.url in
  t.in_flight <- t.in_flight + 1;
  let concurrency = float_of_int t.in_flight *. costs.Config.concurrency_cpu in
  (match deadline with
   | Some d ->
     set_attr span "deadline_remaining"
       (Printf.sprintf "%.4f" (Nk_resource.Deadline.remaining d ~now:(now t)))
   | None -> ());
  (* Expose this request's span to the hostcall closures while the
     pipeline runs (best effort: restored even on exceptions, but a
     suspended pipeline's sub-fetches may interleave). The deadline
     budget rides the same way so scripts' own fetches run under it. *)
  let saved = t.active_span in
  let saved_deadline = t.active_deadline in
  t.active_span <- span;
  t.active_deadline <- deadline;
  let response, fuel, heap, handlers =
    Fun.protect
      ~finally:(fun () ->
        t.active_span <- saved;
        t.active_deadline <- saved_deadline)
      (fun () ->
        if not t.cfg.Config.enable_pipeline then
          (content_fetch t ?span ?deadline req, 0, 0, 0)
        else begin
          let telemetry =
            match span with Some s -> Some (t.tracer, s) | None -> None
          in
          let outcome =
            Nk_pipeline.Pipeline.execute
              ~load_stage:(fun url ->
                let stage = load_stage t ?span url in
                (match stage with
                 | Some _ -> charge_cpu t costs.Config.predicate_eval
                 | None -> ());
                stage)
              ~fetch:(fun req -> content_fetch t ?span ?deadline req)
              ?telemetry req
          in
          (match outcome.Nk_pipeline.Pipeline.source with
           | Nk_pipeline.Pipeline.From_failure Nk_pipeline.Pipeline.Killed ->
             Nk_telemetry.Metrics.incr t.metrics "dropped-termination";
             set_attr span "source" "killed"
           | Nk_pipeline.Pipeline.From_failure _ ->
             Nk_telemetry.Metrics.incr t.metrics "script-errors";
             set_attr span "source" "failure"
           | Nk_pipeline.Pipeline.From_script stage_url ->
             set_attr span "source" ("script:" ^ stage_url)
           | Nk_pipeline.Pipeline.From_origin -> set_attr span "source" "origin");
          ( outcome.Nk_pipeline.Pipeline.response,
            outcome.Nk_pipeline.Pipeline.fuel,
            outcome.Nk_pipeline.Pipeline.heap,
            outcome.Nk_pipeline.Pipeline.handlers_run )
        end)
  in
  (* Handler CPU: engine crossings, interpreter fuel, and allocation
     (GC/paging) pressure. *)
  let handler_cpu =
    (float_of_int fuel *. costs.Config.handler_per_fuel)
    +. (float_of_int heap *. costs.Config.heap_cpu_per_byte)
  in
  let crossing_cpu = float_of_int handlers *. costs.Config.handler_invoke in
  charge_cpu t handler_cpu;
  (* Bookkeeping, engine crossings and concurrency (scheduling/paging)
     pressure occupy the CPU — limiting capacity — but overlap this
     request's network time rather than delaying its response. *)
  charge_cpu_background t (costs.Config.proxy_base +. concurrency +. crossing_cpu);
  t.in_flight <- t.in_flight - 1;
  let elapsed = now t -. started in
  let bytes = float_of_int (Nk_http.Message.content_length response) in
  account t ~site
    ~cpu:(costs.Config.proxy_base +. concurrency +. handler_cpu +. crossing_cpu)
    ~heap:(float_of_int heap) ~bytes ~elapsed;
  access_log t ~site ~req ~resp:response;
  Nk_telemetry.Metrics.observe t.metrics "latency" elapsed;
  let labels = [ ("site", site) ] in
  Nk_telemetry.Metrics.incr t.metrics ~labels "site.requests";
  Nk_telemetry.Metrics.observe t.metrics ~labels "site.latency" elapsed;
  (response, fuel, heap)

(* --- computation diffusion (C3PO over the health plane) --------------- *)

let site_script_url site = Printf.sprintf "http://%s/nakika.js" site

(* The name of the work this site's requests would run, offloadable only
   once known locally: [Some hash] when the stage is cached (a previous
   request warmed it), [Some ""] when the site is known to publish no
   script (walls-only pipeline), [None] when we have never looked — the
   first request must execute here and warm the caches. *)
let offload_hash t site =
  let url = site_script_url site in
  match Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url with
  | Some entry -> Some (Nk_pipeline.Stage.digest entry.stage)
  | None -> (
    match Nk_cache.Memo_cache.find t.negative ~now:(now t) url with
    | Some () -> Some ""
    | None -> None)

(* Decide whether this request should diffuse. Entirely inert when
   diffusion is disabled — no rng draws, no metrics — so a disabled node
   behaves bit-identically to one built before diffusion existed. *)
let offload_plan t ~site =
  match t.diffusion with
  | None -> None
  | Some d -> (
    let p = pressure t in
    if p < d.policy.low_water then None
    else
      match offload_hash t site with
      | None -> None
      | Some script_hash -> (
        let candidates =
          Nk_diffusion.Neighbors.candidates d.neighbors ~now:(now t)
            ~staleness:d.policy.staleness ~fanout:d.policy.fanout
        in
        match
          Nk_diffusion.Policy.decide ~pressure:p ~low_water:d.policy.low_water ~candidates
        with
        | Nk_diffusion.Policy.Local -> None
        | Nk_diffusion.Policy.Offload eligible -> (
          match Nk_diffusion.Policy.pick ~rng:t.rng eligible with
          | None -> None
          | Some target -> Some (d, p, script_hash, target))))

(* Ship the request to [target]; any failure — open breaker, rejection,
   timeout — falls back to [fallback] (the normal local admission path),
   so diffusion can never lose a request, only decline to help. *)
let attempt_offload t ~site ~plan:(d, p, script_hash, target) ?deadline req k ~fallback =
  let target_name = target.Nk_diffusion.Neighbors.name in
  let fall_back reason =
    Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("reason", reason) ]
      "diffusion.fallbacks";
    fallback ()
  in
  match Nk_resource.Upstream.acquire t.upstream ("offload:" ^ target_name) with
  | `Reject _ -> fall_back "breaker-open"
  | `Proceed ticket ->
    let span = start_request_span t "request" req in
    set_attr span "pressure" (Printf.sprintf "%.3f" p);
    let ospan =
      Option.map
        (fun s ->
          Nk_telemetry.Tracer.start_span t.tracer ~parent:s
            ~attrs:[ ("target", target_name) ]
            "offload")
        span
    in
    let range =
      Option.bind (Nk_http.Message.req_header req "Range") Nk_http.Range.parse
    in
    (* The envelope ships the request's headers, so stamping the
       remaining budget here propagates it to the offload target; the
       reply timeout shrinks to the budget for the same reason the
       per-hop fetch timeouts do. *)
    stamp_deadline t deadline req;
    Nk_diffusion.Offload.send d.offload ~target:target_name
      ~target_incarnation:target.Nk_diffusion.Neighbors.incarnation ~site ~script_hash
      ~timeout:(hop_timeout t deadline d.policy.offload_timeout)
      ~request:req
      ~on_done:(fun outcome ->
        (* A rejection means the target answered: it is alive, just
           unwilling. Not a breaker failure — tripping on a
           loaded-but-healthy neighbor would blind us to it for a whole
           cooldown. *)
        Nk_resource.Upstream.settle ticket (Option.is_some outcome);
        set_attr ospan "outcome"
          (match outcome with
           | Some (Nk_diffusion.Offload.Executed _) -> "executed"
           | Some (Nk_diffusion.Offload.Rejected reason) -> "rejected:" ^ reason
           | None -> "timeout");
        finish_span t ospan;
        match outcome with
        | Some (Nk_diffusion.Offload.Executed { response; fuel = _; heap = _ }) ->
          Nk_telemetry.Metrics.incr t.metrics
            ~labels:[ ("target", target_name) ]
            "diffusion.offloads";
          Nk_telemetry.Metrics.incr t.metrics "responses";
          (match range with
           | Some r ->
             if Nk_http.Range.apply r response then
               Nk_telemetry.Metrics.incr t.metrics "range-responses"
           | None -> ());
          set_attr span "status" (string_of_int response.Nk_http.Message.status);
          set_attr span "source" ("offload:" ^ target_name);
          finish_span t span;
          k response
        | Some (Nk_diffusion.Offload.Rejected _) | None ->
          set_attr span "source" "offload-fallback";
          finish_span t span;
          fall_back (if Option.is_some outcome then "rejected" else "timeout"))

(* Receiver side: resolve the shipped hash to a runnable stage before
   the pipeline goes looking for a script. Runs inside the request's
   cothread (the hash-miss path awaits a bounded origin fetch). *)
let resolve_offload_stage t d (env : Nk_diffusion.Offload.request_envelope) =
  let site = env.Nk_diffusion.Offload.site in
  let url = site_script_url site in
  let hash = env.Nk_diffusion.Offload.script_hash in
  if hash = "" then begin
    (* The sender knows the site publishes no script; spare the pipeline
       the origin probe it would otherwise pay to learn the same. *)
    if
      Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url = None
      && Nk_cache.Memo_cache.find t.negative ~now:(now t) url = None
    then
      Nk_cache.Memo_cache.put t.negative ~key:url
        ~expiry:(now t +. negative_ttl) ()
  end
  else if Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url <> None then ()
  else
    match Nk_script.Compile.find_cached_by_hash hash with
    | Some script -> ignore (install_stage_from_program t ~url ~site script)
    | None ->
      (* Hash miss: the program fell out of the (LRU-bounded) compile
         cache, or was never compiled in this process. Fetch the script
         from the origin under its own — short — deadline and warm the
         HTTP cache so the pipeline's stage load finds it without paying
         [origin_timeout]. *)
      Nk_telemetry.Metrics.incr t.metrics "diffusion.hash_misses";
      let req = Nk_http.Message.request url in
      (match
         await_fetch_opt t ~via:None ~timeout:d.policy.fetch_timeout req
       with
       | Some resp when Nk_http.Status.is_success resp.Nk_http.Message.status ->
         let key = cache_key req in
         insert_if_cacheable t ~key ~dht_key:(lazy (Nk_overlay.Dht.Key.of_string key)) req resp
       | _ -> ())

(* Admitted execution: offer the request to admission control (the
   host's CPU backlog is the queueing delay a newly admitted request
   would see) and, once admitted, run [body] in its own cothread under
   a request span. However the pipeline ends, the admission slot is
   released and the span finished exactly once; [on_done] gets the
   pipeline's result after ["responses"] is counted and the [range], if
   any, has been cut out of the response. *)
let run_admitted t ~site ~span:(span_name, attrs) ?range req ~shed body ~on_done ~on_error =
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
    let span = start_request_span t span_name req in
    List.iter (fun (key, value) -> set_attr span key value) attrs;
    Nk_util.Cothread.spawn
      (fun () -> body span)
      ~on_done:(fun ((resp, _, _) as result) ->
        release ();
        Nk_telemetry.Metrics.incr t.metrics "responses";
        (match range with
         | Some r ->
           if Nk_http.Range.apply r resp then
             Nk_telemetry.Metrics.incr t.metrics "range-responses"
         | None -> ());
        set_attr span "status" (string_of_int resp.Nk_http.Message.status);
        finish_span t span;
        on_done result)
      ~on_error:(fun exn ->
        release ();
        Nk_telemetry.Metrics.incr t.metrics "script-errors";
        Logs.warn (fun m ->
            m "[%s] %s pipeline error: %s" (name t) span_name (Printexc.to_string exn));
        set_attr span "error" (Printexc.to_string exn);
        finish_span t span;
        on_error ())

let handle_offload_request t d ~payload =
  match Nk_diffusion.Offload.decode_request_envelope payload with
  | Error msg ->
    Logs.debug (fun m -> m "[%s] undecodable offload request: %s" (name t) msg)
  | Ok env -> (
    let site = env.Nk_diffusion.Offload.site in
    let reject reason =
      Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("reason", reason) ]
        "diffusion.rejects";
      Nk_diffusion.Offload.reply d.offload ~to_:env (Nk_diffusion.Offload.Rejected reason)
    in
    (* The sender addressed an incarnation of us that no longer exists:
       whatever it believed about our load died with it. *)
    if env.Nk_diffusion.Offload.target_incarnation <> incarnation t then
      reject "incarnation"
    else if Nk_resource.Quarantine.is_banned t.quarantine ~site then
      reject "banned-site"
    else if pressure t >= d.policy.high_water then reject "pressure"
    else
      let req = env.Nk_diffusion.Offload.request in
      (* A doomed budget is rejected, so the sender falls back (its
         local queue may be shorter). *)
      match carried_deadline t req ~spent:"deadline-expired" ~late:"deadline-queue" with
      | _, Some reason ->
        Nk_telemetry.Metrics.incr t.metrics ~labels:[ ("at", "offload") ]
          "deadline.expired";
        reject reason
      | deadline, None ->
        run_admitted t ~site
          ~span:("offload-request", [ ("origin", env.Nk_diffusion.Offload.origin_node) ])
          req
          ~shed:(fun ~retry_after:_ reason -> reject reason)
          (fun span ->
            resolve_offload_stage t d env;
            process t ?span ?deadline req)
          ~on_done:(fun (resp, fuel, heap) ->
            Nk_diffusion.Offload.reply d.offload ~to_:env
              (Nk_diffusion.Offload.Executed { response = resp; fuel; heap }))
          ~on_error:(fun () -> reject "error"))

let handle t (req : Nk_http.Message.request) k =
  Nk_telemetry.Metrics.incr t.metrics "requests";
  (* Peer requests serve straight from cache/origin: no pipeline, no
     further DHT consultation (avoids routing loops). *)
  if Nk_http.Message.req_header req peer_header <> None then begin
    (* A doomed budget gets its 504 now, freeing the requester to try
       its next candidate within the budget. *)
    match carried_deadline t req ~spent:"peer" ~late:"peer-queue" with
    | _, Some at ->
      Nk_telemetry.Metrics.incr t.metrics "responses";
      k (deadline_expired_response t ~at)
    | deadline, None ->
      let span = start_request_span t "peer-request" req in
      Nk_util.Cothread.spawn
        (fun () -> content_fetch t ~allow_peers:false ?span ?deadline req)
        ~on_done:(fun resp ->
          Nk_telemetry.Metrics.incr t.metrics "responses";
          set_attr span "status" (string_of_int resp.Nk_http.Message.status);
          finish_span t span;
          k resp)
        ~on_error:(fun _ ->
          set_attr span "error" "true";
          finish_span t span;
          k (Nk_http.Message.error_response 500))
  end
  else begin
    (* Strip the .nakika.net suffix clients use to reach us (§3). *)
    (match Nk_http.Url.of_nakika req.Nk_http.Message.url with
     | Some origin -> req.Nk_http.Message.url <- origin
     | None -> ());
    let site = Nk_http.Url.site req.Nk_http.Message.url in
    let fraction = throttle_fraction t site in
    (* A rejected request still gets a (one-span) trace: admission
       decisions are part of "where did this request's time go?". With
       [retry_after], the 503 tells the client when trying again might
       actually succeed. *)
    let reject ?retry_after outcome =
      let span = start_request_span t "request" req in
      set_attr span "outcome" outcome;
      set_attr span "status" "503";
      finish_span t span;
      k
        (match retry_after with
         | Some s -> retry_after_response s
         | None -> Nk_http.Message.error_response 503)
    in
    if Nk_resource.Quarantine.is_banned t.quarantine ~site then begin
      Nk_telemetry.Metrics.incr t.metrics "dropped-termination";
      reject ~retry_after:(Nk_resource.Quarantine.remaining t.quarantine ~site) "banned-site"
    end
    else if
      t.cfg.Config.enable_resource_controls && fraction > 0.0
      && Nk_util.Prng.float t.rng 1.0 < fraction
    then begin
      Nk_telemetry.Metrics.incr t.metrics "rejected-throttle";
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
      let local () =
        (* §3.1: a Range request is processed on the entire instance (the
           pipeline may transcode it); the requested slice is cut out only
           for the final client response. *)
        run_admitted t ~site ~span:("request", [])
          ?range:(Option.bind (Nk_http.Message.req_header req "Range") Nk_http.Range.parse)
          req
          ~shed:(fun ~retry_after outcome -> reject ~retry_after outcome)
          (fun span -> process t ?span ?deadline req)
          ~on_done:(fun (resp, _fuel, _heap) -> k resp)
          ~on_error:(fun () -> k (Nk_http.Message.error_response 500))
      in
      if deadline_expired t deadline then begin
        (* Zero-remaining admission: the budget was spent before we
           could do anything — answer the 504 without taking a queue
           slot or consulting the diffusion plan. *)
        let span = start_request_span t "request" req in
        set_attr span "outcome" "deadline-admission";
        set_attr span "status" "504";
        finish_span t span;
        k (deadline_expired_response t ~at:"admission")
      end
      else
        (* Proactive diffusion sits after quarantine/throttle but before
           admission: an offloaded request never takes a local queue slot,
           which is exactly the relief a pressured node needs. *)
        match offload_plan t ~site with
        | None -> local ()
        | Some plan -> attempt_offload t ~site ~plan ?deadline req k ~fallback:local
    end
  end

(* --- congestion control (Fig. 6 scheduling) --------------------------- *)

(* Fig. 6: the CONTROL period, the WAIT(TIMEOUT) before the kill
   decision, and the congestion thresholds: CPU backlog (s), and script
   heap and body bytes per control interval. *)
let control_interval = 1.0
let control_timeout = 0.5
let cpu_congestion_backlog = 0.08
let memory_congestion_bytes = 128.0 *. 1024.0 *. 1024.0
let bandwidth_congestion_bytes = 50.0 *. 1024.0 *. 1024.0

let window_rate t value =
  let dt = now t -. t.window_start in
  if dt <= 0.0 then 0.0 else value /. dt

let reset_window t =
  t.mem_window <- 0.0;
  t.bw_window <- 0.0;
  t.window_start <- now t

(* The final (post-timeout) check uses a higher bar: termination is for
   congestion that throttling demonstrably cannot clear, not for a node
   hovering at its capacity. *)
let is_congested t ~final resource =
  let scale = if final then 3.0 else 1.0 in
  match resource with
  | Nk_resource.Resource.Cpu ->
    Nk_sim.Net.cpu_backlog t.net t.host > scale *. cpu_congestion_backlog
  | Nk_resource.Resource.Memory ->
    window_rate t t.mem_window
    >= scale *. memory_congestion_bytes /. control_interval
  | Nk_resource.Resource.Bandwidth ->
    window_rate t t.bw_window
    >= scale *. bandwidth_congestion_bytes /. control_interval
  | Nk_resource.Resource.Running_time | Nk_resource.Resource.Bytes_transferred -> false

let terminate_site t ~site =
  t.terminated <- site :: t.terminated;
  (* Kill the scripting contexts of every cached stage owned by the
     site (its [nakika.js] and whatever it chained to); in-flight
     pipelines die at their next evaluation step. *)
  let owned =
    Nk_cache.Memo_cache.fold t.stage_cache ~init:[] ~f:(fun acc url entry ->
        if entry.site = site then (url, entry) :: acc else acc)
  in
  List.iter
    (fun (url, entry) ->
      Nk_script.Interp.kill (Nk_pipeline.Stage.context entry.stage);
      Nk_cache.Memo_cache.remove t.stage_cache url)
    owned;
  (* Refuse the site's requests for an escalating (but decaying) ban
     window — repeat offenders wait longer, reformed ones recover. *)
  ignore (Nk_resource.Quarantine.punish t.quarantine ~site)

let start_monitor t =
  let accounting = t.accounting in
  let monitor =
    Nk_resource.Monitor.create ~accounting
      ~is_congested:(fun ~final r -> is_congested t ~final r)
      ~throttle:(fun ~site ~fraction ~resource ->
        (* [fraction] is the site's contribution to congestion; scale it
           by the congestion severity so a single active site is not
           blocked outright when the node is only slightly over. *)
        let severity =
          let backlog = Nk_sim.Net.cpu_backlog t.net t.host in
          let cpu_sev =
            if backlog <= cpu_congestion_backlog then 0.0
            else 1.0 -. (cpu_congestion_backlog /. backlog)
          in
          let mem_rate = window_rate t t.mem_window in
          let mem_limit = memory_congestion_bytes /. control_interval in
          let mem_sev = if mem_rate <= mem_limit then 0.0 else 1.0 -. (mem_limit /. mem_rate) in
          Float.min 0.95 (Float.max cpu_sev mem_sev)
        in
        let table = resource_throttles t resource in
        let existing =
          match Hashtbl.find_opt table site with Some f -> f | None -> 0.0
        in
        Hashtbl.replace table site (Float.max existing (fraction *. severity)))
      ~unthrottle:(fun resource -> Hashtbl.reset (resource_throttles t resource))
      ~terminate:(fun ~site -> terminate_site t ~site)
      ~events:t.events ~metrics:t.metrics ()
  in
  t.monitor <- Some monitor;
  let rec cycle () =
    List.iter (fun r -> ignore (Nk_resource.Monitor.begin_control monitor r)) Nk_resource.Resource.all;
    reset_window t;
    Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:control_timeout (fun () ->
        List.iter
          (fun r -> ignore (Nk_resource.Monitor.finish_control monitor r))
          Nk_resource.Resource.all;
        reset_window t;
        Nk_sim.Sim.schedule t.sim ~daemon:true
          ~delay:(Float.max 0.05 (control_interval -. control_timeout))
          cycle)
  in
  Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:control_interval cycle

(* --- access-log posting (§3.3) ---------------------------------------- *)

(* Soft-state maintenance: DHT announcements are TTL'd ([dht_ttl]),
   typically shorter than cached entries' lifetimes; re-announce fresh
   cache contents so cooperative caching keeps finding them (Coral-style
   refresh). *)
let start_reannouncer t dht =
  Nk_sim.Sim.every t.sim ~period:(Float.max 5.0 (t.cfg.Config.dht_ttl /. 2.0)) (fun () ->
      Nk_cache.Http_cache.fold_fresh t.cache ~now:(now t) ~init:()
        ~f:(fun () key expiry ->
          let ttl = Float.min t.cfg.Config.dht_ttl (expiry -. now t) in
          if ttl > 0.0 then
            ignore (Nk_overlay.Dht.put dht ~now:(now t) ~from:(name t) ~key ~value:(name t) ~ttl)))

(* Expired sloppy placements otherwise die only lazily, on the next
   lookup of their own key: a crowd that moves on leaves its copies
   pinned on the holders until someone asks again. Sweeping on half
   the placement TTL makes reconvergence a property of the clock, not
   of lookup luck. Idempotent, so every hotspot-enabled node may run
   one against the shared index. *)
let start_dht_sweeper t dht =
  Nk_sim.Sim.every t.sim ~period:(Float.max 1.0 (t.cfg.Config.hotspot_ttl /. 2.0)) (fun () ->
      Nk_overlay.Dht.sweep dht ~now:(now t))

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
                Nk_telemetry.Metrics.incr t.metrics "log-posts")
          | _ -> ())
        t.log_urls)

(* The period of the node's load reports and [health.*] gauges. *)
let health_report_interval = 1.0

(* Publish the node's own load view as gauges every report interval, so
   [nakika stats --health] and merged benchmark registries can show
   per-node overload state without poking node internals. *)
let start_health_gauges t =
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
        let set = Nk_telemetry.Metrics.set_gauge t.metrics in
        set "health.queue_delay" h.queue_delay;
        set "health.shed_rate" h.shed_rate;
        set "health.open_breakers" (float_of_int (List.length h.open_breakers));
        set "health.quarantined_sites" (float_of_int (List.length h.quarantined));
        match t.diffusion with
        | Some _ -> set "diffusion.pressure" (pressure t)
        | None -> ()
      end)

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

let create ~web ~host ?dht ?bus ?(config = Config.default) () =
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
    match (bus, config.Config.diffusion) with
    | Some b, Some policy ->
      let incarnation () =
        match Nk_sim.Net.faults net with
        | Some plan -> Nk_faults.Plan.incarnation plan ~now:(clock ()) node_name
        | None -> 0
      in
      Some
        {
          policy;
          neighbors = Nk_diffusion.Neighbors.create ();
          offload =
            Nk_diffusion.Offload.create ~name:node_name ~incarnation
              (* Non-daemon: a pending offload's timeout is the fallback
                 guarantee, so it must fire even when the target's crash
                 has left no other events (a daemon timer would let the
                 simulation drain and strand the request). *)
              ~schedule:(fun delay k -> Nk_sim.Sim.schedule sim ~delay k)
              ~publish:(fun ~topic ~payload ->
                Nk_replication.Message_bus.publish b ~from:node_name ~topic ~payload)
              ~metrics ();
        }
    | _ -> None
  in
  let t =
    {
      web;
      net;
      sim;
      host;
      dht;
      bus;
      cfg = config;
      rng = Nk_util.Prng.create (script_seed + String.length (Nk_sim.Net.host_name host));
      cache = Nk_cache.Http_cache.create ~max_bytes:config.Config.cache_bytes ();
      stage_cache = Nk_cache.Memo_cache.create ();
      negative = Nk_cache.Memo_cache.create ();
      accounting = Nk_resource.Accounting.create ();
      monitor = None;
      throttles = Hashtbl.create 4;
      quarantine = Nk_resource.Quarantine.create config.Config.quarantine ~clock ~metrics ();
      admission =
        Option.map
          (fun c -> Nk_resource.Admission.create c ~clock ~metrics ())
          config.Config.admission;
      diffusion;
      upstream =
        Nk_resource.Upstream.create config.Config.breaker
          ~retry_ratio:config.Config.retry_budget_ratio ~clock ~metrics ();
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
      events = Nk_telemetry.Events.create ~clock ();
      active_span = None;
      active_deadline = None;
      local_cidrs =
        List.filter_map
          (fun s -> Result.to_option (Nk_http.Ip.cidr_of_string s))
          config.Config.local_clients;
      terminated = [];
      in_flight = 0;
      mem_window = 0.0;
      bw_window = 0.0;
      window_start = Nk_sim.Sim.now sim;
    }
  in
  Nk_cache.Http_cache.set_metrics t.cache metrics;
  Nk_sim.Httpd.serve web ~host ~hostnames:[ Nk_sim.Net.host_name host ] (fun req k ->
      handle t req (answer_once t req k));
  (match dht with
   | Some dht when config.Config.enable_dht ->
     ignore (Nk_overlay.Dht.join dht (name t));
     start_reannouncer t dht;
     if config.Config.enable_hotspots then start_dht_sweeper t dht
   | _ -> ());
  if config.Config.enable_resource_controls then start_monitor t;
  (* The offload protocol rides the bus: each node owns a request topic
     (work addressed to it) and a reply topic (answers to work it
     shipped). Point-to-point semantics over pub/sub, with the bus's
     acked-retry reliability for free. *)
  (match (t.diffusion, bus) with
   | Some d, Some b ->
     Nk_replication.Message_bus.attach b ~name:node_name ~host;
     Nk_replication.Message_bus.subscribe b ~name:node_name
       ~topic:(Nk_diffusion.Offload.reply_topic node_name)
       ~handler:(fun ~payload ~from:_ ->
         Nk_diffusion.Offload.handle_reply d.offload ~payload);
     Nk_replication.Message_bus.subscribe b ~name:node_name
       ~topic:(Nk_diffusion.Offload.request_topic node_name)
       ~handler:(fun ~payload ~from:_ -> handle_offload_request t d ~payload)
   | _ -> ());
  start_log_poster t;
  start_health_gauges t;
  t
