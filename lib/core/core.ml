(** Na Kika: secure service execution and composition in an open
    edge-side computing network (Grimm et al., NSDI 2006) — OCaml
    reproduction.

    This module is the public facade: one alias per subsystem. The
    paper's primary contribution lives in [Policy] (predicate-selected
    event handlers), [Pipeline] (the scripting pipeline of Fig. 4) and
    [Resource] (congestion-based resource control, Fig. 6); everything
    else is the substrate those run on.

    Quick start (see also [examples/quickstart.ml]):
    {[
      let cluster = Core.Node.Cluster.create () in
      let origin = Core.Node.Cluster.add_origin cluster ~name:"www.example.edu" () in
      Core.Node.Origin.set_static origin ~path:"/index.html" "<html>hi</html>";
      Core.Node.Origin.set_static origin ~path:"/nakika.js"
        ~content_type:"text/javascript" "...site script...";
      let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
      ignore proxy;
      let client = Core.Node.Cluster.add_client cluster ~name:"client" in
      Core.Node.Cluster.fetch cluster ~client
        (Core.Http.Message.request "http://www.example.edu.nakika.net/index.html")
        (fun resp -> Format.printf "%d@." resp.Core.Http.Message.status);
      Core.Node.Cluster.run cluster
    ]} *)

module Util = Nk_util
(** PRNG, statistics, EWMA, cothreads. *)

module Crypto = Nk_crypto
(** SHA-256 and HMAC-SHA256. *)

module Regex = Nk_regex
(** The backtracking regular-expression engine. *)

module Http = Nk_http
(** HTTP messages, URLs, caching semantics, wire codec. *)

module Script = Nk_script
(** NKScript: the sandboxed JavaScript-like interpreter. *)

module Analysis = Nk_analysis
(** nk_lint: admission-time static analysis of NKScript (scope,
    call shapes, cost bounds, taint). *)

module Vocab = Nk_vocab
(** Vocabularies: Request/Response, ImageTransformer, Xml, Regex,
    System, Cache, HardState, Crypto, fetchResource. *)

module Policy = Nk_policy
(** Policy objects, predicates and the decision-tree matcher. *)

module Pipeline = Nk_pipeline
(** The scripting pipeline (Fig. 4), walls, Na Kika Pages, ESI. *)

module Cache = Nk_cache
(** The expiration-based proxy cache and memo caches. *)

module Resource = Nk_resource
(** Congestion-based resource accounting and control (Fig. 6). *)

module Overlay = Nk_overlay
(** The structured overlay: ring, DHT soft state, DNS redirection. *)

module Diffusion = Nk_diffusion
(** Proactive computation diffusion (C3PO): pressure signal, offload
    policy (candidates read from the redirector's report table), and the
    hash-addressed migration protocol. *)

module Replication = Nk_replication
(** Hard state: per-site stores, reliable messaging, replication. *)

module Integrity = Nk_integrity
(** Content integrity headers and probabilistic verification (§6). *)

module Sim = Nk_sim
(** The deterministic discrete-event network simulator. *)

module Faults = Nk_faults
(** Seeded, deterministic fault-injection plans (drops, partitions,
    crashes, failing origins) for chaos testing. *)

module Telemetry = Nk_telemetry
(** Metrics registry, request tracing, structured events, profiling. *)

module Node = Nk_node
(** The Na Kika node runtime, origin servers, and cluster builder. *)

module Workload = Nk_workload
(** Workload generators for every experiment in §5. *)

module Provision = Nk_provision
(** The declarative capacity-plan language: parse, statically verify
    (feasibility, ordering, units, shadowing) and lower plans to
    [Node.Config] values plus per-site fair-share and quarantine
    parameters. *)

let version = "1.0.0"
