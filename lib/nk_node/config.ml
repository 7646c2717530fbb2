type costs = {
  proxy_base : float;
  cache_hit : float;
  context_create : float;
  context_reuse : float;
  tree_cached : float;
  parse_base : float;
  parse_per_byte : float;
  predicate_eval : float;
  handler_per_fuel : float;
  handler_invoke : float;
  heap_cpu_per_byte : float;
  concurrency_cpu : float;
  dht_per_hop : float;
}

(* Each field is documented once, in config.mli. *)
type t = {
  enable_pipeline : bool;
  enable_dht : bool;
  enable_resource_controls : bool;
  cache_bytes : int;
  script_max_fuel : int;
  script_max_heap : int;
  dht_ttl : float;
  local_clients : string list;
  integrity_key : string option;
  lint_mode : [ `Off | `Permissive | `Strict ];
  enable_tracing : bool;
  request_deadline : float;
  enable_hedging : bool;
  hedge_rate : float;
  retry_budget_ratio : float;
  admission : Nk_resource.Admission.config option;
  breaker : Nk_resource.Breaker.config;
  quarantine : Nk_resource.Quarantine.config;
  diffusion : Nk_diffusion.Policy.config option;
  enable_hotspots : bool;
  hotspot_threshold : float;
  hotspot_replicas : int;
  hotspot_ttl : float;
  hotspot_halflife : float;
  site_fuel : (string * int) list;
  site_heap : (string * int) list;
  plan_hash : string option;
}

let default_costs =
  {
    (* A plain proxy tops out at 603 rps on the reference machine
       (§5.1), i.e. ~1.66 ms of CPU per request: proxy handling plus
       cache retrieval (1.1 ms). *)
    proxy_base = 0.0007;
    cache_hit = 0.0008;
    context_create = 0.0015;
    context_reuse = 0.000003;
    tree_cached = 0.000004;
    parse_base = 0.00008;
    (* Large wall/site scripts take up to ~17.8 ms to parse+execute;
       our scripts are a few hundred bytes to a few KB. *)
    parse_per_byte = 0.0000012;
    predicate_eval = 0.000038;
    (* Match-1 runs at 294 rps => ~3.4 ms/request; the gap to proxy_base
       is filled by the two wall stages + site stage (predicate evals,
       context touches) and the handler fuel. *)
    handler_per_fuel = 0.0000003;
    (* Crossing into the scripting engine and back per event handler;
       with two walls and the Match-1 site stage this fills the gap
       between 603 rps (Proxy) and 294 rps (Match-1). *)
    handler_invoke = 0.0004;
    (* A memory bomb that allocates the full 64 MiB sandbox heap costs
       ~2 s of paging pressure on the 1 GB reference machine. *)
    heap_cpu_per_byte = 1e-8;
    (* Unmanaged overload (no admission control) degrades throughput:
       every concurrent request adds scheduling/paging pressure. *)
    concurrency_cpu = 0.00001;
    dht_per_hop = 0.0008;
  }

let default =
  {
    enable_pipeline = true;
    enable_dht = true;
    enable_resource_controls = true;
    cache_bytes = 256 * 1024 * 1024;
    script_max_fuel = 5_000_000;
    script_max_heap = 64 * 1024 * 1024;
    dht_ttl = 300.0;
    local_clients = [];
    integrity_key = None;
    lint_mode = `Permissive;
    enable_tracing = true;
    request_deadline = 0.0;
    enable_hedging = false;
    hedge_rate = 0.05;
    retry_budget_ratio = 0.0;
    admission = Some Nk_resource.Admission.default;
    breaker = Nk_resource.Breaker.default;
    quarantine = Nk_resource.Quarantine.default;
    diffusion = None;
    enable_hotspots = false;
    hotspot_threshold = 10.0;
    hotspot_replicas = 3;
    hotspot_ttl = 30.0;
    hotspot_halflife = 10.0;
    site_fuel = [];
    site_heap = [];
    plan_hash = None;
  }

let plain_proxy =
  {
    default with
    enable_pipeline = false;
    enable_dht = false;
    enable_resource_controls = false;
    admission = None;
  }

(* The config checker core. Node construction refuses configs with
   findings, and the provisioning compiler (lib/nk_provision) runs the
   same function over every config it lowers — a plan that verifies can
   never produce a config a node would reject, because rejection and
   verification are literally the same checks.

   Checks are deliberately limited to values that are wrong under any
   interpretation (inverted orderings, non-positive capacities, negative
   timeouts); documented sentinel values (e.g. [request_deadline = 0]
   mints no budget) stay legal. *)
let validate t =
  let module F = Nk_util.Findings in
  let f = F.create () in
  F.positive_int f "script_max_fuel" t.script_max_fuel;
  F.positive_int f "script_max_heap" t.script_max_heap;
  if t.cache_bytes < 0 then F.reject f "cache_bytes must not be negative (got %d)" t.cache_bytes;
  if t.request_deadline < 0.0 then
    F.reject f "request_deadline must not be negative (got %g)" t.request_deadline;
  if t.hedge_rate <= 0.0 || t.hedge_rate > 1.0 then
    F.reject f "hedge_rate must be in (0, 1] (got %g)" t.hedge_rate;
  if t.retry_budget_ratio < 0.0 || t.retry_budget_ratio > 1.0 then
    F.reject f "retry_budget_ratio must be in [0, 1] (got %g)" t.retry_budget_ratio;
  F.positive f "dht_ttl" t.dht_ttl;
  F.positive f "hotspot_threshold" t.hotspot_threshold;
  F.positive_int f "hotspot_replicas" t.hotspot_replicas;
  F.positive f "hotspot_ttl" t.hotspot_ttl;
  F.positive f "hotspot_halflife" t.hotspot_halflife;
  let per_site name caps =
    List.iter (fun (pattern, v) -> F.positive_int f (Printf.sprintf name pattern) v) caps
  in
  per_site "site_fuel[%s]: fuel cap" t.site_fuel;
  per_site "site_heap[%s]: heap cap" t.site_heap;
  let present check = Option.fold ~none:[] ~some:check in
  present Nk_resource.Admission.validate t.admission
  @ F.to_list f
  @ Nk_resource.Quarantine.validate t.quarantine
  @ Nk_resource.Breaker.validate t.breaker
  @ present Nk_diffusion.Policy.validate t.diffusion
