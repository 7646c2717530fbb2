(* The static analyzer ([Nk_analysis]): golden diagnostics for each
   pass (scope, call shape, cost, taint), soundness of the cost bounds
   against measured interpreter fuel, lint gating in [Stage.of_script]
   as the one gate a node's stage loader goes through, and a
   property linking the scope pass to the interpreter: programs the
   analyzer calls error-free never raise an undefined-variable error at
   runtime. *)

open Core.Script
module A = Core.Analysis.Analysis
module D = Core.Analysis.Diagnostic
module C = Core.Analysis.Cost

(* Render a diagnostic as "line:col sev code" — position and class,
   stable under message rewording. *)
let key (d : D.t) =
  Printf.sprintf "%d:%d %s %s" d.D.pos.Ast.line d.D.pos.Ast.col
    (D.severity_label d.D.severity)
    d.D.code

let diags source = List.map key (A.analyze (Parser.parse source)).A.diagnostics

let check_diags name expected source =
  Alcotest.(check (list string)) name expected (diags source)

(* --- scope pass ------------------------------------------------------ *)

let test_scope_undefined () =
  check_diags "toplevel read of an unknown name"
    [ "1:9 error undefined-var" ] "var a = nope;";
  check_diags "clean straight-line program" [] "var a = 1; var b = a + 1; b";
  check_diags "toplevel read before the var executes"
    [ "1:9 error undefined-var" ] "var a = b; var b = 2;"

let test_scope_hoisting () =
  (* Function declarations hoist (the engine re-hoists per statement
     list), so a call textually before the declaration is clean. *)
  check_diags "call before function declaration" []
    "var r = twice(2); function twice(n) { return n + n; }";
  (* A function expression bound with [var] can only be called once
     its [var] has executed (the first-call refinement), so the
     recursive read of [f] is scope-clean — but the cost pass still
     reports the recursion. *)
  check_diags "self-recursive function expression"
    [ "1:23 info cost-unbounded" ]
    "var f = function(n) { return f(n); }; var z = 0;"

let test_scope_conditional_join () =
  (* Declared on only one branch: possibly — not definitely —
     undefined afterwards, so a warning rather than an error. *)
  check_diags "one-armed if may leave the name unbound"
    [ "1:34 warning use-before-decl" ]
    "if (true) { var v = 1; } var w = v;";
  (* Assignments create globals, so a name assigned on both arms is
     definitely bound afterwards (intersection join). *)
  check_diags "both arms assign" []
    "var c = 1; if (c) { v = 1; } else { v = 2; } var w = v;"

let test_scope_unused_and_duplicates () =
  check_diags "unused parameter"
    [ "1:1 warning unused-binding" ]
    "function f(p) { return 1; } f();";
  check_diags "duplicate declaration"
    [ "2:1 warning duplicate-decl" ] "var d = 1;\nvar d = 2;\nd";
  (* Two [for (var i = ...)] loops in one scope are idiomatic — no
     duplicate-decl noise. *)
  check_diags "for-init re-declaration tolerated" []
    "var s = 0; for (var i = 0; i < 2; i++) { s += i; } for (var i = 0; i < 2; i++) { s += i; }"

let test_scope_builtins () =
  check_diags "shadowing a vocabulary global"
    [ "1:1 warning shadow-builtin" ] "var Math = 1; Math"

(* --- call-shape pass ------------------------------------------------- *)

let test_callshape () =
  check_diags "unknown method with suggestion"
    [ "1:18 error unknown-method" ] "var q = Math.cbrt(2);";
  check_diags "wrong native arity"
    [ "1:22 warning bad-arity" ] {|var r = Regex.replace("x", "y");|};
  check_diags "strict-arity native is an error"
    [ "1:18 error bad-arity" ] "var b = ByteArray(1, 2);";
  check_diags "namespace is not callable"
    [ "1:13 error not-a-function" ] "var u = Math();";
  check_diags "namespace is not constructible"
    [ "1:9 error not-a-constructor" ] "var u = new Math();";
  (* Shadowing a global suspends shape checks on it: the analyzer no
     longer knows what the name denotes. *)
  check_diags "shadowed global is exempt"
    [ "1:1 warning shadow-builtin" ] "var Regex = 1; Regex.replace(1);"

let test_policy_shape () =
  check_diags "misspelled handler field"
    [ "1:35 warning unknown-policy-field" ]
    "var p = new Policy(); p.onrequest = function() { return null; }; p.register();";
  check_diags "handler must be a function"
    [ "1:36 error bad-policy-field" ]
    {|var p = new Policy(); p.onResponse = "nope"; p.register();|};
  check_diags "never registered"
    [ "1:1 warning unregistered-policy" ] "var p = new Policy();";
  check_diags "well-formed policy is clean" []
    {|var p = new Policy(); p.url = ["x.org"]; p.onResponse = function() { return null; }; p.register();|}

(* --- cost pass ------------------------------------------------------- *)

let cost_items source = (A.analyze (Parser.parse source)).A.costs

let find_cost name items =
  match List.find_opt (fun (i : C.item) -> i.C.name = name) items with
  | Some i -> i.C.bound
  | None -> Alcotest.failf "no cost item for %s" name

let bounded_source =
  "function work() { var total = 0; for (var i = 0; i < 10; i++) { total = total + i; } return total; }"

let test_cost_bounds () =
  (match find_cost "work" (cost_items bounded_source) with
  | C.Bounded { fuel; allocs } ->
    Alcotest.(check bool) "constant-trip loop bounded" true (fuel > 0 && fuel < 1_000);
    Alcotest.(check bool) "allocation events stay small" true (allocs <= 10)
  | C.Unbounded { reason; _ } -> Alcotest.failf "work unbounded: %s" reason);
  (match find_cost "spin" (cost_items "function spin() { while (true) { } }") with
  | C.Unbounded _ -> ()
  | C.Bounded _ -> Alcotest.fail "while(true) must be unbounded");
  match find_cost "rec" (cost_items "function rec(n) { return rec(n); }") with
  | C.Unbounded { reason; _ } ->
    Alcotest.(check bool) "recursion named in the reason" true
      (let re = Core.Util.Strutil.contains_sub reason ~sub:"recursion" in
       re)
  | C.Bounded _ -> Alcotest.fail "self-recursion must be unbounded"

(* The bound must dominate what the engine actually charges: run the
   bounded function and compare measured fuel to the static bound.
   The call site itself costs a few fuel (statement, callee and call
   expressions) beyond the per-invocation item. *)
let test_cost_covers_measured_fuel () =
  let measure src =
    let ctx = Interp.create ~max_fuel:100_000 () in
    Builtins.install ctx;
    ignore (Compile.run_string ctx src);
    Interp.fuel_used ctx
  in
  let without = measure bounded_source in
  let with_call = measure (bounded_source ^ " work();") in
  let invocation = with_call - without in
  match find_cost "work" (cost_items bounded_source) with
  | C.Bounded { fuel; _ } ->
    Alcotest.(check bool)
      (Printf.sprintf "static bound %d covers measured invocation %d" fuel invocation)
      true
      (fuel + 4 >= invocation)
  | C.Unbounded { reason; _ } -> Alcotest.failf "work unbounded: %s" reason

let test_cost_info_diagnostic () =
  check_diags "unbounded handler surfaces as info"
    [ "1:51 info cost-unbounded" ]
    "var p = new Policy(); p.onResponse = function() { while (Response.read()) { } return null; }; p.register();"

(* --- taint pass ------------------------------------------------------ *)

let test_taint () =
  check_diags "cookie reaches the response body"
    [ "3:17 warning taint-flow" ]
    {|var p = new Policy();
p.onResponse = function() {
  Response.write(Request.header("Cookie"));
  return null;
};
p.register();|};
  check_diags "flow through a derived binding"
    [ "2:12 warning taint-flow" ]
    {|var c = Request.header("authorization");
Cache.store("k", c + "!", 10);|};
  check_diags "benign headers do not taint" []
    {|var c = Request.header("Accept"); Response.setHeader("X-A", c);|}

(* --- parse failures and position plumbing ---------------------------- *)

let test_parse_error_report () =
  let r = A.analyze_program_source "var ][ nope" in
  Alcotest.(check int) "one error" 1 (A.errors r);
  match r.A.diagnostics with
  | [ d ] -> Alcotest.(check string) "code" "parse-error" d.D.code
  | ds -> Alcotest.failf "expected a single diagnostic, got %d" (List.length ds)

let test_for_init_position () =
  (* The for-init expression clause must carry the initializer's own
     position, not the [for] keyword's (satellite fix in [Parser]). *)
  match Parser.parse "var x = 0; for (x = 1; x < 2; x++) { }" with
  | [ _; { Ast.sdesc = Ast.Sfor (Some init, _, _, _); _ } ] ->
    Alcotest.(check int) "init clause column" 17 init.Ast.spos.Ast.col
  | _ -> Alcotest.fail "unexpected parse shape"

(* --- lint gating in Stage.of_script ---------------------------------- *)

let host = Core.Vocab.Hostcall.stub ()

(* Lints with an error (undefined 'frobnicate') but only fails at
   request time — admission control must catch it statically. *)
let broken_script =
  "var p = new Policy(); p.onRequest = function() { return frobnicate(); }; p.register();"

let test_stage_lint_strict () =
  match
    Core.Pipeline.Stage.of_script ~url:"http://x.org/nakika.js" ~host
      ~lint:`Strict ~source:broken_script ()
  with
  | Ok _ -> Alcotest.fail "strict lint must reject"
  | Error msg ->
    Alcotest.(check bool) "message names the lint gate" true
      (Core.Util.Strutil.contains_sub msg ~sub:"rejected by lint")

let test_stage_lint_permissive () =
  let seen = ref None in
  (match
     Core.Pipeline.Stage.of_script ~url:"http://x.org/nakika.js" ~host
       ~lint:`Permissive
       ~on_lint:(fun r -> seen := Some r)
       ~source:broken_script ()
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "permissive lint must admit: %s" msg);
  match !seen with
  | Some r -> Alcotest.(check bool) "report still sees the error" true (A.errors r > 0)
  | None -> Alcotest.fail "on_lint not called"

let test_stage_lint_off () =
  let called = ref false in
  match
    Core.Pipeline.Stage.of_script ~url:"http://x.org/nakika.js" ~host ~lint:`Off
      ~on_lint:(fun _ -> called := true)
      ~source:broken_script ()
  with
  | Ok _ -> Alcotest.(check bool) "analysis skipped" false !called
  | Error msg -> Alcotest.failf "lint off must admit: %s" msg

(* --- node integration: strict vs permissive admission ---------------- *)

open Core.Node

let fetch_sync cluster ~client ~proxy req =
  let result = ref None in
  Cluster.fetch cluster ~client ~proxy req (fun resp -> result := Some resp);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "no response"

let lint_site cluster =
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/index.html" ~max_age:300 "<html>hello</html>";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
    ~max_age:300 broken_script;
  origin

let test_node_strict_rejects () =
  let cluster = Cluster.create () in
  ignore (lint_site cluster);
  (* A scriptless site first: its request warms only the two well-known
     wall stages, giving the stage-cache baseline. *)
  let plain = Cluster.add_origin cluster ~name:"www.plain.edu" () in
  Origin.set_static plain ~path:"/p.html" ~max_age:300 "plain";
  let config = { Config.default with Config.lint_mode = `Strict } in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore
    (fetch_sync cluster ~client ~proxy
       (Core.Http.Message.request "http://www.plain.edu/p.html"));
  let walls = Node.stage_cache_entries proxy in
  let resp =
    fetch_sync cluster ~client ~proxy
      (Core.Http.Message.request "http://www.example.edu/index.html")
  in
  (* The stage is refused at admission, so the page is served untouched
     instead of hitting the broken handler. *)
  Alcotest.(check int) "served without the script" 200 resp.Core.Http.Message.status;
  Alcotest.(check int) "no stage admitted beyond the walls" walls
    (Node.stage_cache_entries proxy);
  let m = Node.metrics proxy in
  Alcotest.(check bool) "lint errors exported" true
    (Core.Telemetry.Metrics.counter_total m "script.lint.errors" > 0);
  Alcotest.(check bool) "rejection traced as a script error" true
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "script-errors" > 0)

let test_node_permissive_admits () =
  let cluster = Cluster.create () in
  ignore (lint_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp =
    fetch_sync cluster ~client ~proxy
      (Core.Http.Message.request "http://www.example.edu/index.html")
  in
  (* Default (permissive) mode admits the stage; the broken handler
     then fails at request time — exactly the outcome strict mode
     front-runs. *)
  Alcotest.(check int) "broken handler fails the request" 500
    resp.Core.Http.Message.status;
  Alcotest.(check bool) "stage was admitted" true (Node.stage_cache_entries proxy >= 1);
  let m = Node.metrics proxy in
  Alcotest.(check bool) "lint errors still counted" true
    (Core.Telemetry.Metrics.counter_total m "script.lint.errors" > 0)

(* --- one gate: the node admits through [Stage.of_script] -------------- *)

let unparsable_script = "var p = new Policy(; p.register();"

(* A proxy under [mode] in front of a site publishing [broken_script]
   and one publishing [unparsable_script]; each site is requested once
   more after its stage was built (or refused). The compile cache is
   cleared first, so the counters do not depend on earlier tests. *)
let gate_run mode =
  Compile.cache_clear ();
  let cluster = Cluster.create () in
  ignore (lint_site cluster);
  let bad = Cluster.add_origin cluster ~name:"www.bad.edu" () in
  Origin.set_static bad ~path:"/index.html" ~max_age:300 "<html>bad</html>";
  Origin.set_static bad ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    unparsable_script;
  let config = { Config.default with Config.lint_mode = mode } in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  List.iter
    (fun url -> ignore (fetch_sync cluster ~client ~proxy (Core.Http.Message.request url)))
    [
      "http://www.example.edu/index.html";
      "http://www.example.edu/index.html";
      "http://www.bad.edu/index.html";
    ];
  proxy

let script_counters proxy =
  List.filter_map
    (fun (name, labels, v) ->
      if Core.Util.Strutil.starts_with ~prefix:"script." name || name = "script-errors" then
        Some
          (Printf.sprintf "%s{%s}=%d" name
             (String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) labels))
             v)
      else None)
    (Core.Telemetry.Metrics.counters (Node.metrics proxy))

(* The node's log line for a refused stage carries the gate's message. *)
let capture_warnings f =
  let seen = ref [] in
  let reporter =
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun m ->
                  if level = Logs.Warning then seen := m :: !seen;
                  over ();
                  k ())
                fmt));
    }
  in
  let old_reporter = Logs.reporter () and old_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter old_reporter;
      Logs.set_level old_level)
    (fun () -> ignore (f ()));
  List.rev !seen

let test_gate_same_message () =
  let url = "http://www.example.edu/nakika.js" in
  let expected =
    match Core.Pipeline.Stage.of_script ~url ~host ~lint:`Strict ~source:broken_script () with
    | Ok _ -> Alcotest.fail "strict lint must reject"
    | Error msg -> msg
  in
  Alcotest.(check bool) "names the first error" true
    (Core.Util.Strutil.contains_sub expected ~sub:"rejected by lint: 1 error(s), first: 1:");
  let prefix = Printf.sprintf "[nk1.nakika.net] stage %s failed: " url in
  let refusals =
    List.filter_map
      (fun m ->
        if Core.Util.Strutil.starts_with ~prefix m then
          Some (String.sub m (String.length prefix) (String.length m - String.length prefix))
        else None)
      (capture_warnings (fun () -> gate_run `Strict))
  in
  (* Refused once; the negative cache answers the second request. *)
  Alcotest.(check (list string)) "node refuses with the stage's message" [ expected ] refusals

let test_gate_parse_error () =
  List.iter
    (fun mode ->
      let report = ref None in
      (match
         Core.Pipeline.Stage.of_script ~url:"http://www.bad.edu/nakika.js" ~host ~lint:mode
           ~on_lint:(fun r -> report := Some r)
           ~source:unparsable_script ()
       with
      | Ok _ -> Alcotest.fail "an unparsable body cannot build a stage"
      | Error _ -> ());
      match !report with
      | Some { A.diagnostics = [ d ]; _ } ->
        Alcotest.(check string) "one parse-error" "parse-error" d.D.code;
        Alcotest.(check bool) "an error" true (d.D.severity = D.Error)
      | Some r -> Alcotest.failf "expected one diagnostic, got %d" (List.length r.A.diagnostics)
      | None -> Alcotest.fail "on_lint not called")
    [ `Permissive; `Strict ]

(* Every mode looks each fetched body up in the compile cache before
   anything else, since the lint reads the cached AST: a strict node
   counts a miss for the bodies it refuses too. *)
let test_gate_counters () =
  let walls = "script.compile_cache.misses{site:nakika.net}=2" in
  let compiled =
    [
      "script.compile_cache.misses{site:www.bad.edu}=1";
      "script.compile_cache.misses{site:www.example.edu}=1";
    ]
  in
  let linted = [ "script.lint.errors{site:www.bad.edu}=1"; "script.lint.errors{site:www.example.edu}=1" ] in
  let check name mode expected =
    Alcotest.(check (list string)) name (List.sort compare expected)
      (List.sort compare (script_counters (gate_run mode)))
  in
  check "permissive" `Permissive (("script-errors{}=3" :: walls :: compiled) @ linted);
  check "off" `Off ("script-errors{}=3" :: walls :: compiled);
  check "strict" `Strict (("script-errors{}=2" :: walls :: compiled) @ linted)

(* Offload envelopes name a site's work by the digest the stage
   carries: SHA-256 of the script body, taken once by the compile
   cache. A bus spy posing as an idle neighbor reads the envelope. *)
let test_offload_digest () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/index.html" ~max_age:300 "<html>hello</html>";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    broken_script;
  let config =
    {
      Config.default with
      Config.enable_diffusion = true;
      diffusion_low_water = 0.0;
      diffusion_staleness = 1000.0;
      diffusion_offload_timeout = 0.3;
    }
  in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let bus = Cluster.bus cluster in
  let shipped = ref [] in
  Core.Replication.Message_bus.attach bus ~name:"spy" ~host:client;
  Core.Replication.Message_bus.subscribe bus ~name:"spy"
    ~topic:(Core.Diffusion.Offload.request_topic "spy")
    ~handler:(fun ~payload ~from:_ ->
      match Core.Diffusion.Offload.decode_request_envelope payload with
      | Ok env -> shipped := env.Core.Diffusion.Offload.script_hash :: !shipped
      | Error e -> Alcotest.fail ("undecodable envelope: " ^ e));
  let req () = Core.Http.Message.request "http://www.example.edu/index.html" in
  (* The first request builds the stage locally; the second offloads. *)
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  Node.observe_neighbor proxy ~name:"spy" ~pressure:(-1.0) ~incarnation:1 ~distance:0.01;
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  Alcotest.(check (list string)) "digest of the body"
    [ Core.Crypto.Sha256.digest broken_script ]
    !shipped

(* --- soundness property ---------------------------------------------- *)

(* If the scope pass reports no error-severity diagnostic, running the
   program must never raise an undefined-variable error: the analyzer's
   errors are exactly the class "will/may read an unbound name", so a
   clean bill means every read is backed by a prelude binding, a
   hoisted function, or a dominating declaration. Warnings deliberately
   stay may-information and are not part of the claim. *)
let scope_soundness_prop =
  QCheck.Test.make
    ~name:"scope-clean programs never raise undefined-variable errors"
    ~count:300
    (QCheck.make ~print:Pretty.program Test_compile.gen_program)
    (fun stmts ->
      let prog = Test_compile.prelude @ stmts in
      if A.errors (A.analyze prog) > 0 then true
      else
        let outcome = Test_compile.run_with Reference_interp.run prog in
        match outcome.Test_compile.result with
        | Error m when Core.Util.Strutil.contains_sub m ~sub:"is not defined" ->
          QCheck.Test.fail_reportf
            "analyzer saw no errors but execution raised: %s" m
        | _ -> true)

let suite =
  [
    Alcotest.test_case "scope: undefined variables" `Quick test_scope_undefined;
    Alcotest.test_case "scope: function hoisting" `Quick test_scope_hoisting;
    Alcotest.test_case "scope: conditional joins" `Quick test_scope_conditional_join;
    Alcotest.test_case "scope: unused and duplicate bindings" `Quick
      test_scope_unused_and_duplicates;
    Alcotest.test_case "scope: builtin shadowing" `Quick test_scope_builtins;
    Alcotest.test_case "call shape: natives and namespaces" `Quick test_callshape;
    Alcotest.test_case "call shape: policy registration" `Quick test_policy_shape;
    Alcotest.test_case "cost: bounds per function" `Quick test_cost_bounds;
    Alcotest.test_case "cost: bound covers measured fuel" `Quick
      test_cost_covers_measured_fuel;
    Alcotest.test_case "cost: unbounded handler info" `Quick test_cost_info_diagnostic;
    Alcotest.test_case "taint: credential flows" `Quick test_taint;
    Alcotest.test_case "parse errors become diagnostics" `Quick test_parse_error_report;
    Alcotest.test_case "parser: for-init positions" `Quick test_for_init_position;
    Alcotest.test_case "stage lint: strict rejects" `Quick test_stage_lint_strict;
    Alcotest.test_case "stage lint: permissive admits" `Quick test_stage_lint_permissive;
    Alcotest.test_case "stage lint: off skips" `Quick test_stage_lint_off;
    Alcotest.test_case "node: strict lint refuses the stage" `Quick
      test_node_strict_rejects;
    Alcotest.test_case "node: permissive lint admits and counts" `Quick
      test_node_permissive_admits;
    Alcotest.test_case "one gate: node and stage refuse alike" `Quick test_gate_same_message;
    Alcotest.test_case "one gate: unparsable body, one parse-error" `Quick
      test_gate_parse_error;
    Alcotest.test_case "one gate: node lint and compile-cache counters" `Quick
      test_gate_counters;
    Alcotest.test_case "one gate: offload digest is the body's SHA-256" `Quick
      test_offload_digest;
    QCheck_alcotest.to_alcotest scope_soundness_prop;
  ]
