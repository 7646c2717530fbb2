(* What every phase of a request shares: the node record, its metrics,
   the request context and [phase], CPU charging and deadline helpers. *)

type stage_entry = { stage : Nk_pipeline.Stage.t; site : string }

(* Proactive computation diffusion (C3PO): the policy settings and the
   offload protocol instance (envelope codec, pending table, reply
   matching). Offload candidates come from the redirector's report
   table. *)
type diffusion = { policy : Nk_diffusion.Policy.config; offload : Nk_diffusion.Offload.t }

(* A request's context: the span its phases open children under and its
   remaining deadline budget. Every internal hop runs under the budget;
   [span = None] (tracing off, or a path with no request context) opens
   nothing. *)
type ctx = { span : Nk_telemetry.Tracer.span option; deadline : Nk_resource.Deadline.t option }

type t = {
  web : Nk_sim.Httpd.t;
  net : Nk_sim.Net.t;
  sim : Nk_sim.Sim.t;
  host : Nk_sim.Net.host;
  dht : Nk_overlay.Dht.t option; (* [None] unless [Config.enable_dht] *)
  bus : Nk_replication.Message_bus.t;
  redirector : Nk_overlay.Redirector.t;
  (* the cluster's one load-report table: this node's health tick
     writes to it, and its offload decisions read it *)
  cfg : Config.t;
  rng : Nk_util.Prng.t;
  cache : Nk_cache.Http_cache.t;
  stage_cache : stage_entry Nk_cache.Memo_cache.t;
  negative : unit Nk_cache.Memo_cache.t;
  accounting : Nk_resource.Accounting.t option;
  (* per-site usage for the resource monitor, its only reader: [Some]
     exactly when [Config.enable_resource_controls] starts the monitor.
     Without it nothing is charged and [usage] would stay 0.0 forever. *)
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
  mutable active : ctx;
  (* The context of the pipeline currently on the CPU: hosted scripts'
     own fetches (hostcall closures are per-stage, not per-request) run
     under its span and deadline budget. Best effort: a pipeline
     suspended on a sub-fetch can interleave with another request. *)
  local_cidrs : Nk_http.Ip.cidr list;
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

let quarantine t = t.quarantine

let admission t = t.admission

let upstream t = t.upstream

let stage_cache_entries t = Nk_cache.Memo_cache.size t.stage_cache

let now t = Nk_sim.Sim.now t.sim

(* The node's metrics, declared once. *)
module Counter = Nk_telemetry.Metrics.Counter
module Gauge = Nk_telemetry.Metrics.Gauge
module Hist = Nk_telemetry.Metrics.Hist

module Meter = struct
  let requests = Counter.v "requests"
  let responses = Counter.v "responses"
  let range_responses = Counter.v "range-responses"
  let origin_fetches = Counter.v "origin-fetches"
  let peer_fetches = Counter.v "peer-fetches"
  let dht_hits = Counter.v "dht-hits"
  let revalidations = Counter.v "revalidations"
  let stale_served = Counter.v "cache.stale_served"
  let integrity_unverified = Counter.v "integrity-unverified"
  let integrity_violations = Counter.v "integrity-violations"
  let emission_denials = Counter.v "emission-denials"
  let script_errors = Counter.v "script-errors"
  let dropped_termination = Counter.v "dropped-termination"
  let rejected_throttle = Counter.v "rejected-throttle"
  let log_posts = Counter.v "log-posts"
  let hash_misses = Counter.v "diffusion.hash_misses"
  let latency = Hist.v "latency"
  let deadline_expired = Counter.family "deadline.expired" ~label:"at"
  let retry_attempts = Counter.family "retry.attempts" ~label:"upstream"
  let fetch_latency = Hist.family "fetch.latency" ~label:"upstream"
  let site_requests = Counter.family "site.requests" ~label:"site"
  let site_latency = Hist.family "site.latency" ~label:"site"
  let compile_hits = Counter.family "script.compile_cache.hits" ~label:"site"
  let compile_misses = Counter.family "script.compile_cache.misses" ~label:"site"
  let lint_errors = Counter.family "script.lint.errors" ~label:"site"
  let lint_warnings = Counter.family "script.lint.warnings" ~label:"site"
  let script_fuel = Hist.family "script.fuel" ~label:"site"
  let script_heap = Hist.family "script.heap" ~label:"site"
  let offloads = Counter.family "diffusion.offloads" ~label:"target"
  let offload_fallbacks = Counter.family "diffusion.fallbacks" ~label:"reason"
  let offload_rejects = Counter.family "diffusion.rejects" ~label:"reason"
  let queue_delay = Gauge.v "health.queue_delay"
  let shed_rate = Gauge.v "health.shed_rate"
  let open_breakers = Gauge.v "health.open_breakers"
  let quarantined_sites = Gauge.v "health.quarantined_sites"
  let pressure = Gauge.v "diffusion.pressure"
end

(* The §5.1 CPU cost model; [Config.default_costs] documents it. *)
let costs = Config.default_costs

(* --- request context and phases ---------------------------------------- *)

module Tracer = Nk_telemetry.Tracer

let untraced = { span = None; deadline = None }

let traced = { span = Some Tracer.top; deadline = None }

(* A new request's context: with tracing on, its first phase opens the
   trace root. Allocates only to carry a deadline. *)
let arrival t deadline =
  let base = if t.cfg.Config.enable_tracing then traced else untraced in
  if Option.is_none deadline then base else { base with deadline }

(* Every span of the node opens here: [f] runs under a child span of
   [ctx]'s (the trace root, under an [arrival] context), finished even
   on exceptions, and gets the child's context. A context with no span
   opens nothing and is passed on as it is. *)
let phase t ctx name ?attrs f =
  match ctx.span with
  | None -> f ctx
  | parent -> Tracer.child t.tracer parent ?attrs name (fun span -> f { ctx with span })

(* [set_attr span key format v] records [format v] only under a live
   span: an untraced request builds no attribute text. *)
let set_attr = Tracer.set_attr_opt

(* Seconds to a tenth of a millisecond, as span attributes show them. *)
let seconds_text s = Printf.sprintf "%.4f" s

(* A root span's attributes: URL, site, then [attrs]; none untraced. *)
let request_attrs ctx (req : Nk_http.Message.request) attrs =
  match ctx.span with
  | None -> []
  | Some _ ->
    ("url", Nk_http.Url.to_string req.Nk_http.Message.url)
    :: ("site", Nk_http.Url.site req.Nk_http.Message.url)
    :: attrs

(* A request's root phase [name], in a cothread of its own: [k] gets what
   [f] returned once the span is finished. *)
let serve t ctx name req ~attrs f k =
  Nk_util.Cothread.spawn
    (fun () -> phase t ctx name ~attrs:(request_attrs ctx req attrs) f)
    ~on_done:k ~on_error:raise

(* The one place ["responses"] is counted: the [range], if any, is cut
   out of [resp] and the request span records the status. *)
let respond t span ?range resp =
  Counter.incr t.metrics Meter.responses;
  (match range with
   | Some r -> if Nk_http.Range.apply r resp then Counter.incr t.metrics Meter.range_responses
   | None -> ());
  set_attr span "status" string_of_int resp.Nk_http.Message.status

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

(* The period of the node's health tick: one load report and the
   [health.*] gauges. *)
let health_report_interval = 1.0

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

let retry_after_response seconds =
  let resp = Nk_http.Message.error_response 503 in
  Nk_http.Message.set_resp_header resp "Retry-After"
    (string_of_int (max 1 (int_of_float (Float.ceil seconds))));
  resp

(* --- tail tolerance: deadline budgets ------------------------------- *)

(* Fetch with a deadline, resolving to [None] on timeout. Under fault
   injection the response may never arrive (dropped on the wire, server
   crashed); the timer is a daemon event so pending timeouts never keep
   the simulation alive. A response cancels the timer, so it leaves the
   queue and lets go of the suspended cothread at once; one that arrives
   after the timeout fired is ignored by [Cothread.await]. *)
let await_fetch_opt t ~via ~timeout req =
  Nk_util.Cothread.await (fun k ->
      let timer = Nk_sim.Sim.timer t.sim ~delay:timeout (fun () -> k None) in
      let deliver resp =
        Nk_sim.Sim.cancel t.sim timer;
        k (Some resp)
      in
      match via with
      | Some host -> Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:host req deliver
      | None -> Nk_sim.Httpd.fetch t.web ~from:t.host req deliver)

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
  Counter.incr_at t.metrics Meter.deadline_expired at;
  Nk_resource.Deadline.expired_response ~reason:("deadline-" ^ at) ()
