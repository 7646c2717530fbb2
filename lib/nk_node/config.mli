(** Node configuration: the knobs an operator or a provisioning plan
    sets per node, and the CPU cost model.

    The cost model is fixed: every node charges by {!default_costs}. Its
    constants translate the work our OCaml implementation does into
    simulated CPU seconds on the reference machine (the paper's 2.8 GHz
    Pentium 4). They are set from the per-operation costs the paper
    reports in §5.1 — e.g. 1.5 ms to create a scripting context, 3 µs
    to reuse one, 4 µs for a cached decision tree, < 38 µs per
    predicate evaluation — so the micro-benchmarks reproduce Table 2's
    shape. The node's fixed timeouts, TTLs and Fig. 6 control thresholds
    are constants beside their one reader in [Node]. *)

type costs = {
  proxy_base : float; (** per-request proxy handling (cache code path) *)
  cache_hit : float; (** retrieving a resource from the cache (1.1 ms) *)
  context_create : float; (** fresh scripting context (1.5 ms) *)
  context_reuse : float; (** reusing a pooled context (3 us) *)
  tree_cached : float; (** cached decision tree retrieval (4 us) *)
  parse_base : float; (** parsing+executing an empty script (0.08 ms) *)
  parse_per_byte : float; (** additional parse+exec cost per script byte *)
  predicate_eval : float; (** one stage's predicate evaluation (< 38 us) *)
  handler_per_fuel : float; (** event-handler CPU per interpreter fuel unit *)
  handler_invoke : float; (** fixed cost of invoking one event handler *)
  heap_cpu_per_byte : float; (** GC/paging pressure: CPU charged per byte of
                                 script heap a pipeline allocates *)
  concurrency_cpu : float; (** per-request CPU added per concurrently active
                               request (unmanaged-overload degradation) *)
  dht_per_hop : float; (** per overlay routing hop *)
}

type t = {
  enable_pipeline : bool; (** false: a plain Apache-style proxy (baseline) *)
  enable_dht : bool;
  enable_resource_controls : bool;
  cache_bytes : int;
  script_max_fuel : int;
  script_max_heap : int;
  dht_ttl : float; (** cooperative-cache announcement lifetime *)
  termination_penalty : float; (** base quarantine window: seconds a
                                   terminated site's requests are refused
                                   before it may run scripts again; doubles
                                   per repeat offense up to [quarantine_max] *)
  local_clients : string list; (** CIDR blocks considered local (System.isLocal) *)
  integrity_key : string option; (** verify X-Content-SHA256/X-Signature on
                                     peer-served content with this publisher
                                     key (§6); [None] disables verification *)
  lint_mode : [ `Off | `Permissive | `Strict ];
      (** admission-time static analysis of fetched scripts: [`Strict]
          refuses stages with error-severity diagnostics, [`Permissive]
          (the default) only exports [script.lint.*] metrics, [`Off]
          skips analysis *)
  enable_tracing : bool; (** record a per-request span tree in the node's
                             {!Nk_telemetry.Tracer} (on by default) *)
  request_deadline : float;
      (** per-request deadline budget minted at admission and
          propagated on every internal hop via the X-NaKika-Deadline
          header; hops run under [min (per-hop timeout) remaining] and
          receivers shed work whose budget is below their queue-delay
          estimate. 0 — the default — mints nothing (budgets stamped
          by upstream nodes are still honored) *)
  enable_hedging : bool;
      (** race a backup replica fetch against a cooperative-cache peer
          fetch that has outlived the upstream's p95 latency; first
          response wins (default false) *)
  hedge_rate : float;
      (** hedge token-bucket refill per primary fetch — the bound on
          hedge overhead as a fraction of fetch load (default 0.05) *)
  retry_budget_ratio : float;
      (** per-success refill of the per-upstream retry budgets gating
          retry paths; 0 — the default — disables budgeted retries *)
  enable_admission : bool; (** CoDel-style admission control and load
                               shedding at the front door *)
  admission_target : float; (** queueing-delay target (s); delay above it
                                for a full interval triggers shedding *)
  admission_interval : float; (** detection interval for the delay target *)
  admission_capacity : int; (** hard bound on concurrently admitted
                                requests, with per-site fair shares *)
  breaker_failures : int; (** consecutive upstream failures tripping a
                              circuit breaker open *)
  breaker_error_rate : float; (** windowed error rate that also trips it *)
  breaker_window : float; (** error-rate observation window (s) *)
  breaker_cooldown : float; (** initial open-state cooldown before the
                                half-open probe *)
  breaker_max_cooldown : float; (** backoff doubling cap *)
  quarantine_max : float; (** cap on the escalating per-site ban window
                              (the base is [termination_penalty]) *)
  quarantine_decay : float; (** seconds of good behaviour that erase one
                                quarantine strike *)
  enable_diffusion : bool; (** proactive computation diffusion (C3PO):
                               offload pipeline executions to
                               lower-pressure neighbors before admission
                               control starts shedding *)
  diffusion_low_water : float; (** pressure below which a node never
                                   offloads (proactive threshold; the
                                   signal crosses 0.5 at the admission
                                   delay target) *)
  diffusion_high_water : float; (** pressure at or above which a node
                                    refuses incoming offloads *)
  diffusion_fanout : int; (** max lower-pressure neighbors considered
                              per offload decision *)
  diffusion_offload_timeout : float; (** seconds to wait for an offload
                                         reply before falling back to
                                         local execution *)
  diffusion_fetch_timeout : float; (** receiver's bound on fetching a
                                       script from the origin after a
                                       compile-cache hash miss *)
  diffusion_staleness : float; (** neighbor pressure reports older than
                                   this are ignored; also the
                                   redirector's load-report staleness
                                   bound *)
  enable_hotspots : bool;
      (** hotspot detection + Coral-style sloppy replication on the
          cluster's shared DHT index (default false). The first
          hotspot-enabled proxy added to a cluster configures the
          shared DHT with the knobs below. *)
  hotspot_threshold : float; (** decayed request rate (req/s) at which a
                                 DHT key counts as hot and gets sloppy
                                 replicas *)
  hotspot_replicas : int; (** sloppy copies placed per hot key *)
  hotspot_ttl : float; (** seconds before a sloppy placement expires and
                           the ring reconverges *)
  hotspot_halflife : float; (** decay halflife of the per-key
                                request-rate estimator *)
  site_shares : (string * float) list;
      (** ordered [(pattern, fraction)] guaranteed admission-queue
          slices per site, lowered from a provisioning plan's
          [site "..." {share >= N%}] rules; patterns are exact hosts,
          ["*"], or ["*.suffix"], first match wins. Empty (default):
          active sites split the queue evenly. *)
  site_quarantine : (string * float * float) list;
      (** ordered [(pattern, base, max)] per-site quarantine ban-window
          overrides ([site "..." {quarantine base .. max ..}]) *)
  site_fuel : (string * int) list;
      (** ordered [(pattern, fuel)] per-site per-request fuel caps
          (each effective cap is [min script_max_fuel cap]) *)
  site_heap : (string * int) list;
      (** ordered [(pattern, bytes)] per-site script-heap caps *)
  plan_hash : string option;
      (** SHA-256 (hex) of the provisioning-plan text this config was
          lowered from; [None] for hand-built configs *)
}

val default_costs : costs
(** The cost model every node charges by ([micro-costs] prints it). *)

val default : t

val plain_proxy : t
(** The micro-benchmarks' "Proxy" baseline: no pipeline, no DHT, no
    resource controls. *)

val validate : t -> string list
(** The config checker core: every finding is a human-readable
    description of a value that is wrong under any interpretation —
    inverted orderings ([diffusion_low_water >= diffusion_high_water],
    [breaker_cooldown > breaker_max_cooldown],
    [termination_penalty > quarantine_max]), non-positive capacities,
    negative timeouts, and per-site share tables that oversubscribe or
    round to zero slots. [[]] means the config is accepted.
    {!Node.create} refuses configs with findings, and the provisioning
    compiler ([Nk_provision]) runs the same checks over every config it
    lowers — verification and rejection share one core. *)
