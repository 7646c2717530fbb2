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

type t = {
  enable_pipeline : bool;
  enable_dht : bool;
  enable_resource_controls : bool;
  cache_bytes : int;
  script_max_fuel : int;
  script_max_heap : int;
  dht_ttl : float;
  termination_penalty : float;
  local_clients : string list;
  integrity_key : string option;
  (* Admission-time static analysis of fetched scripts: [`Strict]
     refuses stages whose script has error-severity lint diagnostics,
     [`Permissive] only exports the counts, [`Off] skips analysis. *)
  lint_mode : [ `Off | `Permissive | `Strict ];
  enable_tracing : bool;
  (* Tail tolerance. [request_deadline] mints a per-request budget at
     admission, propagated on every internal hop via the
     X-NaKika-Deadline header; 0 — the default — mints nothing, and a
     node still honors budgets stamped by upstream nodes.
     [enable_hedging] races a backup replica fetch against a peer
     fetch that has outlived the upstream's p95, governed by a token
     bucket refilled at [hedge_rate] per primary fetch (so hedges are
     bounded to that fraction of fetch load). [retry_budget_ratio] is
     the per-success refill of the per-upstream retry budgets; 0 — the
     default — disables budgeted retries and keeps the pre-existing
     retry behavior bit-identical. *)
  request_deadline : float;
  enable_hedging : bool;
  hedge_rate : float;
  retry_budget_ratio : float;
  enable_admission : bool;
  admission_target : float;
  admission_interval : float;
  admission_capacity : int;
  breaker_failures : int;
  breaker_error_rate : float;
  breaker_window : float;
  breaker_cooldown : float;
  breaker_max_cooldown : float;
  quarantine_max : float;
  quarantine_decay : float;
  enable_diffusion : bool;
  diffusion_low_water : float;
  diffusion_high_water : float;
  diffusion_fanout : int;
  diffusion_offload_timeout : float;
  diffusion_fetch_timeout : float;
  diffusion_staleness : float;
  (* Hotspot detection + Coral-style sloppy replication on the shared
     DHT index: keys whose decayed request rate crosses
     [hotspot_threshold] req/s get their announcements replicated onto
     [hotspot_replicas] nodes along the lookup funnel for
     [hotspot_ttl] seconds. Off by default so small-cluster behavior
     is unchanged. *)
  enable_hotspots : bool;
  hotspot_threshold : float;
  hotspot_replicas : int;
  hotspot_ttl : float;
  hotspot_halflife : float;
  (* Per-site parameters lowered from a provisioning plan
     (lib/nk_provision). Each list is ordered: patterns ("host", "*",
     "*.suffix") resolve first-match, the order the plan declared them
     in. Empty lists — the default — leave behavior identical to a
     plan-free node. *)
  site_shares : (string * float) list;
      (* (pattern, fraction of admission_capacity) guaranteed slices *)
  site_quarantine : (string * float * float) list;
      (* (pattern, base, max) ban-window overrides *)
  site_fuel : (string * int) list; (* (pattern, per-request fuel cap) *)
  site_heap : (string * int) list; (* (pattern, script-heap cap, bytes) *)
  plan_hash : string option;
  (* SHA-256 (hex) of the plan text this config was lowered from; None
     for hand-built configs. Surfaced by [nakika stats --health]. *)
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
    termination_penalty = 30.0;
    local_clients = [];
    integrity_key = None;
    lint_mode = `Permissive;
    enable_tracing = true;
    request_deadline = 0.0;
    enable_hedging = false;
    hedge_rate = 0.05;
    retry_budget_ratio = 0.0;
    enable_admission = true;
    (* Well above the monitor's 80 ms CPU congestion backlog
       ([Node.cpu_congestion_backlog]): the Fig. 6 monitor handles
       resource hogs; admission control only kicks in when the host is
       drowning in sheer request volume. *)
    admission_target = 0.5;
    admission_interval = 0.5;
    admission_capacity = 64;
    breaker_failures = 3;
    breaker_error_rate = 0.5;
    breaker_window = 10.0;
    breaker_cooldown = 5.0;
    breaker_max_cooldown = 60.0;
    quarantine_max = 240.0;
    quarantine_decay = 60.0;
    enable_diffusion = false;
    (* Proactive: well below the 0.5 crossing the pressure signal hits
       at the admission delay target, so diffusion starts moving work
       before admission control starts shedding it. *)
    diffusion_low_water = 0.3;
    diffusion_high_water = 0.8;
    diffusion_fanout = 3;
    diffusion_offload_timeout = 3.0;
    diffusion_fetch_timeout = 2.0;
    diffusion_staleness = 3.0;
    enable_hotspots = false;
    hotspot_threshold = 10.0;
    hotspot_replicas = 3;
    hotspot_ttl = 30.0;
    hotspot_halflife = 10.0;
    site_shares = [];
    site_quarantine = [];
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
    enable_admission = false;
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
  let problems = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let positive name v = if v <= 0.0 then reject "%s must be positive (got %g)" name v in
  let non_negative name v = if v < 0.0 then reject "%s must not be negative (got %g)" name v in
  if t.admission_capacity <= 0 then
    reject "admission_capacity must be positive (got %d)" t.admission_capacity;
  positive "admission_target" t.admission_target;
  positive "admission_interval" t.admission_interval;
  if t.script_max_fuel <= 0 then
    reject "script_max_fuel must be positive (got %d)" t.script_max_fuel;
  if t.script_max_heap <= 0 then
    reject "script_max_heap must be positive (got %d)" t.script_max_heap;
  if t.cache_bytes < 0 then reject "cache_bytes must not be negative (got %d)" t.cache_bytes;
  non_negative "request_deadline" t.request_deadline;
  if t.hedge_rate <= 0.0 || t.hedge_rate > 1.0 then
    reject "hedge_rate must be in (0, 1] (got %g)" t.hedge_rate;
  if t.retry_budget_ratio < 0.0 || t.retry_budget_ratio > 1.0 then
    reject "retry_budget_ratio must be in [0, 1] (got %g)" t.retry_budget_ratio;
  positive "dht_ttl" t.dht_ttl;
  positive "termination_penalty" t.termination_penalty;
  positive "quarantine_max" t.quarantine_max;
  if t.termination_penalty > t.quarantine_max then
    reject "termination_penalty (%g) exceeds quarantine_max (%g)" t.termination_penalty
      t.quarantine_max;
  if t.breaker_failures <= 0 then
    reject "breaker_failures must be positive (got %d)" t.breaker_failures;
  if t.breaker_error_rate <= 0.0 || t.breaker_error_rate > 1.0 then
    reject "breaker_error_rate must be in (0, 1] (got %g)" t.breaker_error_rate;
  positive "breaker_window" t.breaker_window;
  positive "breaker_cooldown" t.breaker_cooldown;
  if t.breaker_cooldown > t.breaker_max_cooldown then
    reject "breaker_cooldown (%g) exceeds breaker_max_cooldown (%g)" t.breaker_cooldown
      t.breaker_max_cooldown;
  non_negative "diffusion_low_water" t.diffusion_low_water;
  if t.diffusion_low_water >= t.diffusion_high_water then
    reject "diffusion_low_water (%g) must be below diffusion_high_water (%g)"
      t.diffusion_low_water t.diffusion_high_water;
  if t.diffusion_high_water > 1.0 then
    reject "diffusion_high_water must be at most 1 (got %g)" t.diffusion_high_water;
  if t.diffusion_fanout <= 0 then
    reject "diffusion_fanout must be positive (got %d)" t.diffusion_fanout;
  positive "diffusion_offload_timeout" t.diffusion_offload_timeout;
  positive "diffusion_fetch_timeout" t.diffusion_fetch_timeout;
  positive "diffusion_staleness" t.diffusion_staleness;
  positive "hotspot_threshold" t.hotspot_threshold;
  if t.hotspot_replicas <= 0 then
    reject "hotspot_replicas must be positive (got %d)" t.hotspot_replicas;
  positive "hotspot_ttl" t.hotspot_ttl;
  positive "hotspot_halflife" t.hotspot_halflife;
  let share_total = ref 0.0 in
  List.iter
    (fun (pattern, f) ->
      if pattern = "" then reject "site_shares: empty site pattern";
      if f <= 0.0 || f > 1.0 then
        reject "site_shares[%s]: share must be in (0, 1] (got %g)" pattern f
      else begin
        share_total := !share_total +. f;
        if f *. float_of_int t.admission_capacity < 0.5 then
          reject "site_shares[%s]: share %g%% of capacity %d rounds to zero slots" pattern
            (100.0 *. f) t.admission_capacity
      end)
    t.site_shares;
  if !share_total > 1.0 +. 1e-9 then
    reject "site_shares: declared shares sum to %g%% of capacity (over 100%%)"
      (100.0 *. !share_total);
  List.iter
    (fun (pattern, base, max_window) ->
      if pattern = "" then reject "site_quarantine: empty site pattern";
      if base <= 0.0 then
        reject "site_quarantine[%s]: base window must be positive (got %g)" pattern base;
      if base > max_window then
        reject "site_quarantine[%s]: base window (%g) exceeds max (%g)" pattern base
          max_window)
    t.site_quarantine;
  List.iter
    (fun (pattern, fuel) ->
      if fuel <= 0 then reject "site_fuel[%s]: fuel cap must be positive (got %d)" pattern fuel)
    t.site_fuel;
  List.iter
    (fun (pattern, heap) ->
      if heap <= 0 then reject "site_heap[%s]: heap cap must be positive (got %d)" pattern heap)
    t.site_heap;
  List.rev !problems
