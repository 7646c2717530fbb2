(* The capacity-plan toolchain (lib/nk_provision): parsing, the four
   verifier passes (units, ordering, feasibility, shadowing) against a
   golden diagnostics corpus that pins message text AND position, the
   lowering to node configs, and the end-to-end guarantee that a
   verifier-accepted plan always lowers to a config node construction
   accepts (they share one checker, [Config.validate]). *)

module P = Core.Provision.Provision
module Lower = Core.Provision.Lower
module Verify = Core.Provision.Verify
module D = Core.Analysis.Diagnostic
module Config = Core.Node.Config
module Admission = Core.Resource.Admission
module Quarantine = Core.Resource.Quarantine

let diag_strings (r : P.report) = List.map D.to_string r.P.diagnostics

let check_diags label plan expected =
  Alcotest.(check (list string)) label expected (diag_strings (P.check plan))

(* --- parsing ---------------------------------------------------------- *)

let test_parse_positions () =
  let r = P.check "node \"*\" {\n  capacity { admission = 64 }\n}\n" in
  Alcotest.(check int) "clean plan: no diagnostics" 0 (List.length r.P.diagnostics);
  match r.P.plan with
  | None -> Alcotest.fail "plan did not parse"
  | Some plan ->
    Alcotest.(check int) "one item" 1 (List.length plan.Core.Provision.Ast.items);
    Alcotest.(check string) "hash is sha-256 hex" "64"
      (string_of_int (String.length plan.Core.Provision.Ast.hash))

let test_parse_error_position () =
  check_diags "missing brace"
    "node \"*\" \n  capacity { admission = 64 }\n"
    [ "2:3: error[parse-error]: expected '{' to open the node block, found identifier \
       \"capacity\"" ]

let test_lex_error () =
  check_diags "unknown unit"
    "node \"*\" { capacity { admission = 64qux } }\n"
    [ "1:35: error[lex-error]: unknown unit \"qux\" (expected %, ms, s, m, h, b, kb, mb or \
       gb)" ]

let test_units_sugar () =
  (* 500ms, 5m, 8mb, underscores in numbers all normalize. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  capacity { admission = 64; target = 500ms; fuel = 2_000_000; heap = 8mb }\n\
      \  quarantine { base = 2s; max = 5m }\n\
       }\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check (float 1e-9)) "500ms" 0.5 (Verify.admission_of c).Admission.target;
    Alcotest.(check int) "2_000_000" 2_000_000 c.Config.script_max_fuel;
    Alcotest.(check int) "8mb" (8 * 1024 * 1024) c.Config.script_max_heap;
    Alcotest.(check (float 1e-9)) "2s" 2.0 c.Config.quarantine.Quarantine.base;
    Alcotest.(check (float 1e-9)) "5m" 300.0 c.Config.quarantine.Quarantine.max_window
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_hotspots_section () =
  (* The hotspots section lowers to the DHT hot-key knobs; detection
     stays off unless the plan turns it on. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  hotspots { enabled = on; threshold = 12; replicas = 2; ttl = 90s; halflife = 5s }\n\
       }\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check bool) "enabled" true c.Config.enable_hotspots;
    Alcotest.(check (float 1e-9)) "threshold" 12.0 c.Config.hotspot_threshold;
    Alcotest.(check int) "replicas" 2 c.Config.hotspot_replicas;
    Alcotest.(check (float 1e-9)) "ttl" 90.0 c.Config.hotspot_ttl;
    Alcotest.(check (float 1e-9)) "halflife" 5.0 c.Config.hotspot_halflife
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_deadline_section () =
  (* The deadline section lowers to the tail-tolerance knobs; all of
     them ship off so a plan that says nothing changes nothing. *)
  let r =
    P.compile
      "node \"*\" {\n\
      \  deadline { request = 2s; hedge = on; hedge-rate = 4%; retry_budget = 10% }\n\
       }\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  (match r.P.lowered with
   | [ l ] ->
     let c = l.Lower.config in
     Alcotest.(check (float 1e-9)) "request" 2.0 c.Config.request_deadline;
     Alcotest.(check bool) "hedge" true c.Config.enable_hedging;
     Alcotest.(check (float 1e-9)) "hedge-rate" 0.04 c.Config.hedge_rate;
     Alcotest.(check (float 1e-9)) "retry_budget" 0.1 c.Config.retry_budget_ratio
   | _ -> Alcotest.fail "expected exactly one lowered config");
  (* Defaults: a plan with an empty deadline section keeps the tail
     machinery off. *)
  match (P.compile "node \"*\" {\n  deadline { }\n}\n").P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check (float 1e-9)) "off by default" 0.0 c.Config.request_deadline;
    Alcotest.(check bool) "hedging off" false c.Config.enable_hedging;
    Alcotest.(check (float 1e-9)) "no retry budget" 0.0 c.Config.retry_budget_ratio
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_deadline_rate_range () =
  check_diags "hedge-rate above 100%"
    "node \"*\" {\n  deadline { hedge-rate = 130% }\n}\n"
    [ "2:27: error[unit-mismatch]: deadline.hedge-rate: percent must be in (0%, 100%]" ]

(* --- golden diagnostics: units pass ----------------------------------- *)

let test_units_unknown_section () =
  check_diags "unknown section"
    "node \"*\" {\n  capcity { admission = 64 }\n}\n"
    [ "2:3: error[unknown-section]: unknown section \"capcity\" (expected capacity, \
       diffusion, hotspots, breaker, quarantine, deadline)" ]

let test_units_unknown_key () =
  check_diags "unknown key"
    "node \"*\" {\n  breaker { failures = 3; cooloff = 5s }\n}\n"
    [ "2:27: error[unknown-key]: unknown breaker setting \"cooloff\" (expected failures, \
       error-rate, window, cooldown, max)" ]

let test_units_kind_mismatch () =
  check_diags "duration where count expected"
    "node \"*\" {\n  capacity { admission = 2s }\n}\n"
    [ "2:26: error[unit-mismatch]: capacity.admission: expected a bare count, got duration" ]

let test_units_share_not_percent () =
  check_diags "share in seconds"
    "site \"a.example\" { share >= 30s }\n"
    [ "1:20: error[unit-mismatch]: share must be a percent (e.g. 30%), got duration" ]

let test_units_share_out_of_range () =
  check_diags "share above 100%"
    "site \"a.example\" { share >= 130% }\n"
    [ "1:20: error[share-out-of-range]: share must be in (0%, 100%], got 130%" ]

let test_units_bad_pattern () =
  check_diags "interior wildcard"
    "site \"a.*.example\" { fuel <= 1000 }\n"
    [ "1:6: error[bad-pattern]: site pattern \"a.*.example\": wildcards must be \"*\" or \
       \"*.suffix\"" ]

(* Counts and sizes lower through [int_of_float]; one past the int range
   used to pass [plan check] and lower to 0. Both [check] and [compile]
   must now stop at the value with a unit-mismatch. *)
let test_units_oversized () =
  List.iter
    (fun (plan, expected) ->
      check_diags "check" plan [ expected ];
      Alcotest.(check (list string)) "compile" [ expected ] (diag_strings (P.compile plan)))
    [
      ( "node \"*\" {\n  capacity { admission = 99999999999999999999 }\n}\n",
        "2:26: error[unit-mismatch]: capacity.admission: count must be below 4611686018427387904" );
      ( "node \"*\" {\n  capacity { heap = 99999999999gb }\n}\n",
        "2:21: error[unit-mismatch]: capacity.heap: size must be below 4611686018427387904" );
      ( "node \"*\" {\n  hotspots { replicas = 99999999999999999999 }\n}\n",
        "2:25: error[unit-mismatch]: hotspots.replicas: count must be below 4611686018427387904" );
      ( "site \"a.example\" { fuel <= 99999999999999999999 }\n",
        "1:20: error[unit-mismatch]: fuel cap: count must be below 4611686018427387904" );
    ]

(* --- golden diagnostics: ordering pass -------------------------------- *)

let test_ordering_inverted_waters () =
  check_diags "low above default high"
    "node \"*\" {\n  diffusion { low = 0.9 }\n}\n"
    [ "2:21: error[inverted-waters]: diffusion waters: low (0.9) must be below high (0.8) \
       (the default high)" ]

let test_ordering_waters_both_set () =
  check_diags "both set, inverted"
    "node \"*\" {\n  diffusion { low = 80%; high = 40% }\n}\n"
    [ "2:21: error[inverted-waters]: diffusion waters: low (0.8) must be below high (0.4)" ]

let test_ordering_breaker_cooldown () =
  check_diags "cooldown above cap"
    "node \"*\" {\n  breaker { cooldown = 2m; max = 30s }\n}\n"
    [ "2:24: error[breaker-cooldown-exceeds-max]: breaker cooldown (120s) exceeds the \
       backoff cap (30s)" ]

let test_ordering_quarantine_base () =
  check_diags "node quarantine base above max"
    "node \"*\" {\n  quarantine { base = 10m; max = 4m }\n}\n"
    [ "2:23: error[quarantine-base-exceeds-max]: quarantine base window (600s) exceeds the \
       cap (240s)" ]

let test_ordering_site_quarantine () =
  check_diags "site quarantine base above its max"
    "site \"a.example\" { quarantine base 10m max 5m }\n"
    [ "1:36: error[quarantine-base-exceeds-max]: site \"a.example\": quarantine base window \
       (600s) exceeds its max (300s)" ]

(* --- golden diagnostics: feasibility pass ----------------------------- *)

let test_feasibility_oversubscribed () =
  check_diags "shares above 100%"
    "site \"a.example\" { share >= 60% }\nsite \"b.example\" { share >= 70% }\n"
    [ "2:20: error[shares-infeasible]: declared shares sum to 130% of admission capacity \
       (over 100%); site \"b.example\" is the rule that crosses the line" ]

let test_feasibility_wildcard_share () =
  check_diags "share on wildcard"
    "site \"*.example\" { share >= 10% }\n"
    [ "1:20: error[share-on-wildcard]: site \"*.example\": a share on a wildcard pattern \
       reserves capacity for unboundedly many tenants; name each tenant site explicitly" ]

let test_feasibility_rounds_to_zero () =
  check_diags "1% of 10 slots"
    "node \"*\" {\n  capacity { admission = 10 }\n}\nsite \"a.example\" { share >= 1% }\n"
    [ "4:20: error[share-rounds-to-zero]: site \"a.example\": a 1% share of node \"*\"'s \
       admission capacity (10 slots) rounds to zero slots" ]

(* --- golden diagnostics: shadowing pass ------------------------------- *)

let test_shadowing_warns () =
  check_diags "wildcard shadows later exact rule"
    "site \"*.example\" { fuel <= 1000 }\nsite \"a.example\" { fuel <= 2000 }\n"
    [ "2:6: warning[shadowed-rule]: site rule \"a.example\" can never match: every site it \
       covers is claimed by \"*.example\" (line 1)" ]

let test_shadowed_share_not_counted () =
  (* The shadowed rule's share must not count toward feasibility: the
     only error here would be double-counting a.example's 60%. *)
  let r =
    P.check "site \"a.example\" { share >= 60% }\nsite \"a.example\" { share >= 60% }\n"
  in
  Alcotest.(check int) "one warning, no errors" 0 (P.errors r);
  Alcotest.(check int) "shadow warning present" 1 (P.warnings r)

(* --- lowering --------------------------------------------------------- *)

let multi_tenant =
  "node \"*.nakika.net\" {\n\
  \  capacity { admission = 64; target = 500ms }\n\
   }\n\
   site \"video.example\" { share >= 30%; fuel <= 40000; heap <= 4mb; quarantine base 2s \
   max 5m }\n\
   site \"news.example\" { share >= 20% }\n"

let test_lowering_multi_tenant () =
  let r = P.compile multi_tenant in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    let c = l.Lower.config in
    Alcotest.(check string) "pattern" "*.nakika.net" l.Lower.node_pattern;
    Alcotest.(check int) "capacity" 64 (Verify.admission_of c).Admission.capacity;
    Alcotest.(check (list (pair string (float 1e-9)))) "shares in declaration order"
      [ ("video.example", 0.30); ("news.example", 0.20) ]
      (Verify.admission_of c).Admission.shares;
    Alcotest.(check (list (pair string int))) "fuel caps" [ ("video.example", 40000) ]
      c.Config.site_fuel;
    Alcotest.(check (list (pair string int))) "heap caps"
      [ ("video.example", 4 * 1024 * 1024) ]
      c.Config.site_heap;
    (match c.Config.quarantine.Quarantine.site_params with
     | [ (site, base, max_) ] ->
       Alcotest.(check string) "quarantine site" "video.example" site;
       Alcotest.(check (float 1e-9)) "base" 2.0 base;
       Alcotest.(check (float 1e-9)) "max" 300.0 max_
     | _ -> Alcotest.fail "expected one quarantine override");
    (match c.Config.plan_hash with
     | Some h -> Alcotest.(check int) "plan hash recorded" 64 (String.length h)
     | None -> Alcotest.fail "plan hash missing")
  | _ -> Alcotest.fail "expected exactly one lowered config"

let test_lowering_deterministic () =
  let c1 = P.compile multi_tenant and c2 = P.compile multi_tenant in
  match (c1.P.lowered, c2.P.lowered) with
  | [ a ], [ b ] ->
    Alcotest.(check bool) "identical configs" true (a.Lower.config = b.Lower.config);
    Alcotest.(check bool) "identical hashes" true (P.hash c1 = P.hash c2)
  | _ -> Alcotest.fail "expected one lowered config each"

let test_config_for_matching () =
  let r =
    P.compile
      "node \"nk1.nakika.net\" {\n  capacity { admission = 32 }\n}\n\
       node \"*\" {\n  capacity { admission = 64 }\n}\n"
  in
  Alcotest.(check int) "clean" 0 (P.errors r);
  let cap node =
    match P.config_for r ~node with
    | Some c -> (Verify.admission_of c).Admission.capacity
    | None -> -1
  in
  Alcotest.(check int) "exact match wins" 32 (cap "nk1.nakika.net");
  Alcotest.(check int) "wildcard catches the rest" 64 (cap "nk2.nakika.net")

let test_site_only_plan_gets_default_node () =
  let r = P.compile "site \"a.example\" { share >= 10% }\n" in
  Alcotest.(check int) "clean" 0 (P.errors r);
  match r.P.lowered with
  | [ l ] ->
    Alcotest.(check string) "implicit wildcard node" "*" l.Lower.node_pattern;
    Alcotest.(check int) "default capacity" (Verify.admission_of Config.default).Admission.capacity
      (Verify.admission_of l.Lower.config).Admission.capacity
  | _ -> Alcotest.fail "expected one lowered config"

let test_explain_mentions_lowering () =
  let r = P.compile multi_tenant in
  let text = P.explain r in
  List.iter
    (fun needle ->
      let found =
        let n = String.length needle and len = String.length text in
        let rec scan i = i + n <= len && (String.sub text i n = needle || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) (Printf.sprintf "explain mentions %s" needle) true found)
    [ "capacity.admission -> admission_capacity"; "share 30%"; "quarantine base 2s" ]

let test_explain_multi_tenant_exact () =
  Alcotest.(check string) "explain, byte for byte"
    "plan f5a0241e44d3\n\
     node \"*.nakika.net\":\n\
    \  capacity.admission -> admission_capacity = 64 slots\n\
    \  capacity.target -> admission_target = 0.5s\n\
    \  capacity.interval -> admission_interval = 0.5s\n\
    \  capacity.fuel -> script_max_fuel = 5000000\n\
    \  capacity.heap -> script_max_heap = 67108864 bytes\n\
    \  capacity.cache -> cache_bytes = 268435456 bytes\n\
    \  diffusion.enabled -> enable_diffusion = off\n\
    \  diffusion.low -> diffusion_low_water = 0.3\n\
    \  diffusion.high -> diffusion_high_water = 0.8\n\
    \  diffusion.fanout -> diffusion_fanout = 3\n\
    \  diffusion.timeout -> diffusion_offload_timeout = 3s\n\
    \  diffusion.fetch-timeout -> diffusion_fetch_timeout = 2s\n\
    \  diffusion.staleness -> diffusion_staleness = 3s\n\
    \  hotspots.enabled -> enable_hotspots = off\n\
    \  hotspots.threshold -> hotspot_threshold = 10 req/s\n\
    \  hotspots.replicas -> hotspot_replicas = 3\n\
    \  hotspots.ttl -> hotspot_ttl = 30s\n\
    \  hotspots.halflife -> hotspot_halflife = 10s\n\
    \  breaker.failures -> breaker_failures = 3\n\
    \  breaker.error-rate -> breaker_error_rate = 0.5\n\
    \  breaker.window -> breaker_window = 10s\n\
    \  breaker.cooldown -> breaker_cooldown = 5s\n\
    \  breaker.max -> breaker_max_cooldown = 60s\n\
    \  quarantine.base -> termination_penalty = 30s\n\
    \  quarantine.max -> quarantine_max = 240s\n\
    \  quarantine.decay -> quarantine_decay = 60s\n\
    \  deadline.request -> request_deadline = 0s\n\
    \  deadline.hedge -> enable_hedging = off\n\
    \  deadline.hedge-rate -> hedge_rate = 0.05\n\
    \  deadline.retry_budget -> retry_budget_ratio = 0\n\
    \  site \"video.example\" -> share 30% (19 of 64 slots)\n\
    \  site \"news.example\" -> share 20% (13 of 64 slots)\n\
    \  site \"video.example\" -> quarantine base 2s max 300s\n\
    \  site \"video.example\" -> fuel cap 40000\n\
    \  site \"video.example\" -> heap cap 4194304 bytes\n"
    (P.explain (P.compile multi_tenant))

(* examples/plans/single-tenant.nkp, verbatim: the one example plan that
   turns diffusion on and sets breaker knobs. *)
let single_tenant =
  "# A single-tenant deployment: one site, generous caps, diffusion on.\n\
   #\n\
   # The node block configures every proxy (\"*\" matches all node names);\n\
   # the site rule guarantees media.example half the admission queue and\n\
   # tightens its quarantine windows (abusive scripts are banned fast but\n\
   # never for more than ten minutes).\n\
   \n\
   node \"*\" {\n\
    \  capacity {\n\
    \    admission = 128\n\
    \    target = 500ms\n\
    \    fuel = 2_000_000\n\
    \    heap = 32mb\n\
    \  }\n\
    \  diffusion {\n\
    \    enabled = on\n\
    \    low = 30%\n\
    \    high = 80%\n\
    \    fanout = 3\n\
    \  }\n\
    \  breaker {\n\
    \    failures = 3\n\
    \    cooldown = 5s\n\
    \    max = 60s\n\
    \  }\n\
   }\n\
   \n\
   site \"media.example\" {\n\
    \  share >= 50%\n\
    \  fuel <= 1_000_000\n\
    \  quarantine base 5s max 10m\n\
   }\n"

let test_explain_single_tenant_exact () =
  Alcotest.(check string) "explain, byte for byte"
    "plan e2c8e20abe63\n\
     node \"*\":\n\
    \  capacity.admission -> admission_capacity = 128 slots\n\
    \  capacity.target -> admission_target = 0.5s\n\
    \  capacity.interval -> admission_interval = 0.5s\n\
    \  capacity.fuel -> script_max_fuel = 2000000\n\
    \  capacity.heap -> script_max_heap = 33554432 bytes\n\
    \  capacity.cache -> cache_bytes = 268435456 bytes\n\
    \  diffusion.enabled -> enable_diffusion = on\n\
    \  diffusion.low -> diffusion_low_water = 0.3\n\
    \  diffusion.high -> diffusion_high_water = 0.8\n\
    \  diffusion.fanout -> diffusion_fanout = 3\n\
    \  diffusion.timeout -> diffusion_offload_timeout = 3s\n\
    \  diffusion.fetch-timeout -> diffusion_fetch_timeout = 2s\n\
    \  diffusion.staleness -> diffusion_staleness = 3s\n\
    \  hotspots.enabled -> enable_hotspots = off\n\
    \  hotspots.threshold -> hotspot_threshold = 10 req/s\n\
    \  hotspots.replicas -> hotspot_replicas = 3\n\
    \  hotspots.ttl -> hotspot_ttl = 30s\n\
    \  hotspots.halflife -> hotspot_halflife = 10s\n\
    \  breaker.failures -> breaker_failures = 3\n\
    \  breaker.error-rate -> breaker_error_rate = 0.5\n\
    \  breaker.window -> breaker_window = 10s\n\
    \  breaker.cooldown -> breaker_cooldown = 5s\n\
    \  breaker.max -> breaker_max_cooldown = 60s\n\
    \  quarantine.base -> termination_penalty = 30s\n\
    \  quarantine.max -> quarantine_max = 240s\n\
    \  quarantine.decay -> quarantine_decay = 60s\n\
    \  deadline.request -> request_deadline = 0s\n\
    \  deadline.hedge -> enable_hedging = off\n\
    \  deadline.hedge-rate -> hedge_rate = 0.05\n\
    \  deadline.retry_budget -> retry_budget_ratio = 0\n\
    \  site \"media.example\" -> share 50% (64 of 128 slots)\n\
    \  site \"media.example\" -> quarantine base 5s max 600s\n\
    \  site \"media.example\" -> fuel cap 1000000\n"
    (P.explain (P.compile single_tenant))

let test_lowering_duplicate_key_first_wins () =
  (* The ordering pass checks a knob's first well-formed value; lowering
     must write that same value, not a later one the verifier never
     compared (cooldown 10m against max 30s would be config-invalid). *)
  let r = P.compile "node \"*\" {\n  breaker { cooldown = 1s; max = 30s; cooldown = 10m }\n}\n" in
  Alcotest.(check (list string)) "only the repeat is flagged"
    [ "2:39: warning[duplicate-key]: breaker.cooldown is already set on line 2" ]
    (diag_strings r);
  match r.P.lowered with
  | [ l ] ->
    Alcotest.(check (float 1e-9)) "first cooldown" 1.0
      l.Lower.config.Config.breaker.Core.Resource.Breaker.cooldown
  | _ -> Alcotest.fail "expected one lowered config"

let test_duplicate_key_warning () =
  (* One warning at the repeat, naming the first line; `plan check`
     exits 1 on warnings alone; lowering keeps the first value. *)
  let r = P.compile "node \"*\" {\n  capacity {\n    admission = 32; admission = 64\n  }\n}\n" in
  Alcotest.(check (list string)) "one warning"
    [ "3:21: warning[duplicate-key]: capacity.admission is already set on line 3" ]
    (diag_strings r);
  Alcotest.(check (pair int int)) "errors, warnings" (0, 1) (P.errors r, P.warnings r);
  match r.P.lowered with
  | [ l ] ->
    Alcotest.(check int) "first value" 32 (Verify.admission_of l.Lower.config).Admission.capacity
  | _ -> Alcotest.fail "expected one lowered config"

(* --- the vocabulary rows ------------------------------------------------ *)

(* Each row's setter writes its own field and nothing else: on a config
   where every subsystem is present, [get (set c v) = v] for a legal
   [v], and no other row's [get] moves. A setter that writes the wrong
   sub-record field fails here. Lowering applies a block's settings in
   vocabulary order, so a diffusion setting in a block that leaves
   diffusion off is dropped, and [explain] prints the default for it. *)
let test_vocabulary_round_trip () =
  let all_present =
    { Config.default with Config.diffusion = Some Core.Diffusion.Policy.default }
  in
  let legal (k : Verify.knob) current =
    match k.Verify.kind with
    | Verify.Toggle -> 1.0 -. current
    | Verify.Water -> if current = 0.55 then 0.45 else 0.55
    | Verify.Rate -> if current = 0.25 then 0.75 else 0.25
    | Verify.Count | Verify.Bytes | Verify.Duration_pos | Verify.Duration_nonneg -> current +. 1.0
  in
  List.iter
    (fun (k : Verify.knob) ->
      let name = k.Verify.section ^ "." ^ k.Verify.key in
      let v = legal k (k.Verify.get all_present) in
      let c = k.Verify.set all_present v in
      Alcotest.(check (float 0.0)) (name ^ ": get (set c v) = v") v (k.Verify.get c);
      List.iter
        (fun (other : Verify.knob) ->
          if other != k then
            Alcotest.(check (float 0.0))
              (Printf.sprintf "%s leaves %s.%s" name other.Verify.section other.Verify.key)
              (other.Verify.get all_present) (other.Verify.get c))
        Verify.vocabulary)
    Verify.vocabulary;
  let low_only = "node \"*\" {\n  diffusion { low = 20% }\n}\n" in
  (match (P.compile low_only).P.lowered with
   | [ l ] ->
     Alcotest.(check bool) "diffusion stays off" true (l.Lower.config.Config.diffusion = None)
   | _ -> Alcotest.fail "expected one lowered config");
  (match (P.compile "node \"*\" {\n  diffusion { low = 20%; enabled = on }\n}\n").P.lowered with
   | [ l ] ->
     Alcotest.(check (float 1e-9)) "enabled runs first, whatever the source order" 0.2
       (Verify.diffusion_of l.Lower.config).Core.Diffusion.Policy.low_water
   | _ -> Alcotest.fail "expected one lowered config");
  Alcotest.(check string) "explain, byte for byte"
    "plan b7de1f42eaa8\n\
     node \"*\":\n\
    \  capacity.admission -> admission_capacity = 64 slots\n\
    \  capacity.target -> admission_target = 0.5s\n\
    \  capacity.interval -> admission_interval = 0.5s\n\
    \  capacity.fuel -> script_max_fuel = 5000000\n\
    \  capacity.heap -> script_max_heap = 67108864 bytes\n\
    \  capacity.cache -> cache_bytes = 268435456 bytes\n\
    \  diffusion.enabled -> enable_diffusion = off\n\
    \  diffusion.low -> diffusion_low_water = 0.3\n\
    \  diffusion.high -> diffusion_high_water = 0.8\n\
    \  diffusion.fanout -> diffusion_fanout = 3\n\
    \  diffusion.timeout -> diffusion_offload_timeout = 3s\n\
    \  diffusion.fetch-timeout -> diffusion_fetch_timeout = 2s\n\
    \  diffusion.staleness -> diffusion_staleness = 3s\n\
    \  hotspots.enabled -> enable_hotspots = off\n\
    \  hotspots.threshold -> hotspot_threshold = 10 req/s\n\
    \  hotspots.replicas -> hotspot_replicas = 3\n\
    \  hotspots.ttl -> hotspot_ttl = 30s\n\
    \  hotspots.halflife -> hotspot_halflife = 10s\n\
    \  breaker.failures -> breaker_failures = 3\n\
    \  breaker.error-rate -> breaker_error_rate = 0.5\n\
    \  breaker.window -> breaker_window = 10s\n\
    \  breaker.cooldown -> breaker_cooldown = 5s\n\
    \  breaker.max -> breaker_max_cooldown = 60s\n\
    \  quarantine.base -> termination_penalty = 30s\n\
    \  quarantine.max -> quarantine_max = 240s\n\
    \  quarantine.decay -> quarantine_decay = 60s\n\
    \  deadline.request -> request_deadline = 0s\n\
    \  deadline.hedge -> enable_hedging = off\n\
    \  deadline.hedge-rate -> hedge_rate = 0.05\n\
    \  deadline.retry_budget -> retry_budget_ratio = 0\n"
    (P.explain (P.compile low_only))

(* --- the end-to-end guarantee (qcheck) -------------------------------- *)

(* Random plans over the real grammar: every knob in [Verify.vocabulary]
   can appear, mostly with a value of its own kind, sometimes with one
   drawn from mixed ranges (valid and invalid) or one past the int range,
   so some plans verify and some do not. The property under test is
   one-sided: whenever the verifier says yes, the lowered configs must
   pass [Config.validate] — the exact checker [Node.create] enforces. *)
let oversized_count = "99999999999999999999"

let oversized_size = "99999999999gb"

let gen_plan =
  QCheck.Gen.(
    let mixed =
      oneof
        [
          map (fun n -> Printf.sprintf "%d" n) (int_range (-2) 200);
          map (fun n -> Printf.sprintf "%d%%" n) (int_range (-10) 160);
          map (fun n -> Printf.sprintf "%dms" n) (int_range (-100) 5000);
          map (fun n -> Printf.sprintf "%ds" n) (int_range 0 400);
          map (fun n -> Printf.sprintf "%dmb" n) (int_range 0 128);
          oneofl [ "on"; "off"; "0.3"; "0.9"; oversized_count; oversized_size ];
        ]
    in
    let of_kind = function
      | Verify.Count ->
        frequency
          [ (9, map string_of_int (int_range 1 200)); (1, return oversized_count) ]
      | Verify.Duration_pos -> map (fun n -> Printf.sprintf "%dms" n) (int_range 1 5000)
      | Verify.Duration_nonneg -> map (fun n -> Printf.sprintf "%ds" n) (int_range 0 400)
      | Verify.Water -> map (fun n -> Printf.sprintf "%d%%" n) (int_range 0 100)
      | Verify.Rate -> map (fun n -> Printf.sprintf "%d%%" n) (int_range 1 100)
      | Verify.Bytes ->
        frequency
          [
            (9, map (fun n -> Printf.sprintf "%dmb" n) (int_range 1 128));
            (1, return oversized_size);
          ]
      | Verify.Toggle -> oneofl [ "on"; "off" ]
    in
    let setting (k : Verify.knob) =
      let* v = frequency [ (9, of_kind k.Verify.kind); (1, mixed) ] in
      return (k.Verify.section, Printf.sprintf "    %s = %s" k.Verify.key v)
    in
    let node_block =
      let* chosen = List.fold_right
        (fun k acc ->
          let* keep = int_range 0 3 in
          let* rest = acc in
          if keep = 0 then let* s = setting k in return (s :: rest) else return rest)
        Verify.vocabulary (return [])
      in
      let by_section section =
        List.filter_map (fun (s, line) -> if s = section then Some line else None) chosen
      in
      let section name =
        match by_section name with
        | [] -> ""
        | lines -> Printf.sprintf "  %s {\n%s\n  }\n" name (String.concat "\n" lines)
      in
      return
        (Printf.sprintf "node \"*\" {\n%s}\n" (String.concat "" (List.map section Verify.sections)))
    in
    let site i =
      let* share = int_range 1 60 in
      let* with_share = bool in
      let* fuel =
        frequency
          [ (6, map string_of_int (int_range (-5) 100000)); (1, return oversized_count) ]
      in
      let* with_fuel = bool in
      let* heap =
        frequency
          [
            (6, map (fun n -> Printf.sprintf "%dkb" n) (int_range 0 4096));
            (1, return oversized_size);
          ]
      in
      let* with_heap = bool in
      let clauses =
        (if with_share then [ Printf.sprintf "share >= %d%%" share ] else [])
        @ (if with_fuel then [ Printf.sprintf "fuel <= %s" fuel ] else [])
        @ (if with_heap then [ Printf.sprintf "heap <= %s" heap ] else [])
      in
      match clauses with
      | [] -> return ""
      | clauses ->
        return
          (Printf.sprintf "site \"tenant%d.example\" { %s }\n" i (String.concat "; " clauses))
    in
    let* node = node_block in
    let* n_sites = int_range 0 4 in
    let* sites =
      List.fold_right
        (fun i acc ->
          let* s = site i in
          let* rest = acc in
          return (s :: rest))
        (List.init n_sites (fun i -> i))
        (return [])
    in
    return (node ^ String.concat "" sites))

let accepted_plans_lower_to_valid_configs =
  QCheck.Test.make ~name:"verifier-accepted plans lower to node-accepted configs"
    ~count:300 ~long_factor:10
    (QCheck.make ~print:(fun s -> s) gen_plan)
    (fun plan_text ->
      let checked = P.check plan_text in
      QCheck.assume (P.errors checked = 0);
      let r = P.compile plan_text in
      if P.errors r > 0 then
        QCheck.Test.fail_reportf "verified plan failed to compile:\n%s"
          (String.concat "\n" (diag_strings r));
      if r.P.lowered = [] then QCheck.Test.fail_reportf "verified plan lowered to nothing";
      List.iter
        (fun (l : Lower.lowered) ->
          match Config.validate l.Lower.config with
          | [] -> ()
          | problems ->
            QCheck.Test.fail_reportf "verifier accepted but node rejects: %s\nplan:\n%s"
              (String.concat "; " problems) plan_text)
        r.P.lowered;
      true)

let lowering_is_deterministic =
  QCheck.Test.make ~name:"lowering is deterministic" ~count:100
    (QCheck.make ~print:(fun s -> s) gen_plan)
    (fun plan_text ->
      let a = P.compile plan_text and b = P.compile plan_text in
      List.map (fun l -> l.Lower.config) a.P.lowered
      = List.map (fun l -> l.Lower.config) b.P.lowered)

(* --- plan-provisioned node end to end --------------------------------- *)

let test_plan_drives_a_node () =
  let r = P.compile multi_tenant in
  let config =
    match P.config_for r ~node:"nk1.nakika.net" with
    | Some c -> c
    | None -> Alcotest.fail "no config for node"
  in
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"video.example" () in
  Core.Node.Origin.set_static origin ~path:"/a.html" ~max_age:300 "<html>v</html>";
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Core.Node.Cluster.add_client cluster ~name:"c1" in
  let result = ref None in
  Core.Node.Cluster.fetch cluster ~client ~proxy
    (Core.Http.Message.request "http://video.example/a.html")
    (fun resp -> result := Some resp);
  Core.Node.Cluster.run cluster;
  (match !result with
   | Some resp -> Alcotest.(check int) "served" 200 resp.Core.Http.Message.status
   | None -> Alcotest.fail "no response");
  (* The plan's share table reached the admission controller: once an
     undeclared site holds half the queue (contended), a declared site
     is admitted up to its slice and shed past it. *)
  let module A = Core.Resource.Admission in
  let slice adm site =
    A.reset adm;
    for _ = 1 to 32 do
      ignore (A.offer adm ~site:"filler.example" ~queue_delay:0.0)
    done;
    let rec admit n =
      match A.offer adm ~site ~queue_delay:0.0 with
      | A.Admitted -> admit (n + 1)
      | A.Shed _ -> n
    in
    admit 0
  in
  match Core.Node.Node.admission proxy with
  | None -> Alcotest.fail "admission controller missing"
  | Some adm ->
    Alcotest.(check int) "video slice: 30% of 64" 19 (slice adm "video.example");
    Alcotest.(check int) "news slice: 20% of 64" 13 (slice adm "news.example")

let suite =
  [
    Alcotest.test_case "parse: clean plan, positions, hash" `Quick test_parse_positions;
    Alcotest.test_case "parse: error carries position" `Quick test_parse_error_position;
    Alcotest.test_case "lex: unknown unit" `Quick test_lex_error;
    Alcotest.test_case "units: suffix sugar normalizes" `Quick test_units_sugar;
    Alcotest.test_case "units: hotspots section lowers" `Quick test_hotspots_section;
    Alcotest.test_case "units: deadline section lowers" `Quick test_deadline_section;
    Alcotest.test_case "units: deadline rate range" `Quick test_deadline_rate_range;
    Alcotest.test_case "units: unknown section" `Quick test_units_unknown_section;
    Alcotest.test_case "units: unknown key" `Quick test_units_unknown_key;
    Alcotest.test_case "units: kind mismatch" `Quick test_units_kind_mismatch;
    Alcotest.test_case "units: share must be percent" `Quick test_units_share_not_percent;
    Alcotest.test_case "units: share range" `Quick test_units_share_out_of_range;
    Alcotest.test_case "units: bad pattern" `Quick test_units_bad_pattern;
    Alcotest.test_case "units: counts and sizes past the int range" `Quick test_units_oversized;
    Alcotest.test_case "ordering: inverted waters vs default" `Quick
      test_ordering_inverted_waters;
    Alcotest.test_case "ordering: inverted waters, both set" `Quick
      test_ordering_waters_both_set;
    Alcotest.test_case "ordering: breaker cooldown cap" `Quick test_ordering_breaker_cooldown;
    Alcotest.test_case "ordering: quarantine base cap" `Quick test_ordering_quarantine_base;
    Alcotest.test_case "ordering: site quarantine window" `Quick
      test_ordering_site_quarantine;
    Alcotest.test_case "feasibility: oversubscribed shares" `Quick
      test_feasibility_oversubscribed;
    Alcotest.test_case "feasibility: wildcard share" `Quick test_feasibility_wildcard_share;
    Alcotest.test_case "feasibility: share rounds to zero" `Quick
      test_feasibility_rounds_to_zero;
    Alcotest.test_case "shadowing: warns on dominated rule" `Quick test_shadowing_warns;
    Alcotest.test_case "shadowing: shadowed share not double-counted" `Quick
      test_shadowed_share_not_counted;
    Alcotest.test_case "lowering: multi-tenant plan" `Quick test_lowering_multi_tenant;
    Alcotest.test_case "lowering: deterministic" `Quick test_lowering_deterministic;
    Alcotest.test_case "lowering: config_for first match" `Quick test_config_for_matching;
    Alcotest.test_case "lowering: site-only plan" `Quick test_site_only_plan_gets_default_node;
    Alcotest.test_case "explain: shows the lowering map" `Quick test_explain_mentions_lowering;
    Alcotest.test_case "explain: multi-tenant map exact" `Quick test_explain_multi_tenant_exact;
    Alcotest.test_case "explain: single-tenant map exact" `Quick
      test_explain_single_tenant_exact;
    Alcotest.test_case "lowering: duplicate key keeps first" `Quick
      test_lowering_duplicate_key_first_wins;
    Alcotest.test_case "verify: duplicate key warns at the repeat" `Quick
      test_duplicate_key_warning;
    Alcotest.test_case "vocabulary: rows round-trip, absent subsystem drops settings" `Quick
      test_vocabulary_round_trip;
    QCheck_alcotest.to_alcotest accepted_plans_lower_to_valid_configs;
    QCheck_alcotest.to_alcotest lowering_is_deterministic;
    Alcotest.test_case "plan config drives a real node" `Quick test_plan_drives_a_node;
  ]
