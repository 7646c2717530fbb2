(** Node configuration: the knobs an operator or a provisioning plan
    sets per node, and the CPU cost model.

    Each subsystem with its own module owns its settings: admission,
    breakers, quarantine and diffusion are sub-records whose type,
    [default] and [validate] live in that module, and an optional one
    that is [None] is off. The remaining fields stay flat. The
    throughput harness ([perfbench/]) reads the hedging, hotspot,
    pipeline, tracing, resource-control, lint, cache, deadline and
    [dht_ttl] fields by name, and [enable_dht] stays beside [dht_ttl].
    The script caps, per-site fuel and heap tables, local clients,
    integrity key and plan hash belong to no module of their own.

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
  admission : Nk_resource.Admission.config option;
      (** CoDel-style admission control and load shedding at the front
          door, with per-site fair shares; [None] admits everything *)
  breaker : Nk_resource.Breaker.config;
      (** the circuit breaker of every upstream the node calls *)
  quarantine : Nk_resource.Quarantine.config;
      (** escalating ban windows for sites the monitor terminates *)
  diffusion : Nk_diffusion.Policy.config option;
      (** proactive computation diffusion (C3PO): offload pipeline
          executions to lower-pressure neighbors before admission
          control starts shedding; [None] (the default) is off *)
  enable_hotspots : bool;
      (** hotspot detection + Coral-style sloppy replication on the
          cluster's shared DHT index (default false). The first
          hotspot-enabled proxy added to a cluster configures the
          shared DHT with the knobs below; the first one with
          [enable_dht] also starts the DHT's one sweeper. *)
  hotspot_threshold : float; (** decayed request rate (req/s) at which a
                                 DHT key counts as hot and gets sloppy
                                 replicas *)
  hotspot_replicas : int; (** sloppy copies placed per hot key *)
  hotspot_ttl : float; (** seconds before a sloppy placement expires and
                           the ring reconverges *)
  hotspot_halflife : float; (** decay halflife of the per-key
                                request-rate estimator *)
  site_fuel : (string * int) list;
      (** ordered [(pattern, fuel)] per-site per-request fuel caps
          (each effective cap is [min script_max_fuel cap]); patterns
          are exact hosts, ["*"], or ["*.suffix"], first match wins *)
  site_heap : (string * int) list;
      (** ordered [(pattern, bytes)] per-site script-heap caps *)
  plan_hash : string option;
      (** SHA-256 (hex) of the provisioning-plan text this config was
          lowered from, surfaced by [nakika stats --health]; [None] for
          hand-built configs *)
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
    inverted orderings (diffusion waters, a breaker cooldown or
    quarantine base above its cap), non-positive capacities,
    negative timeouts, and per-site share tables that oversubscribe or
    round to zero slots. It runs each present subsystem's own
    [validate] beside the checks on the flat fields. [[]] means the
    config is accepted. {!Node.create} refuses configs with findings,
    and the provisioning compiler ([Nk_provision]) runs the same checks
    over every config it lowers — verification and rejection share one
    core. *)
