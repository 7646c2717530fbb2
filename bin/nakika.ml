(* The nakika command-line tool.

   The paper notes that "the main impediment to a faster port was the
   relative lack of debugging tools for our prototype implementation"
   (§5.2) — so this CLI is primarily a development aid for NKScript
   authors:

     nakika exec SCRIPT.js          run a script in a sandboxed context
     nakika policies SCRIPT.js      show the policies a script registers
     nakika lint SCRIPT.js          static analysis: scope, call shapes,
                                    cost bounds, taint (exit 0/1/2)
     nakika plan check PLAN.nkp     verify a capacity plan (exit 0/1/2);
                                    also: plan compile, plan explain
     nakika fmt SCRIPT.js           pretty-print a script in canonical form
     nakika nkp PAGE.nkp            render a Na Kika Page
     nakika demo                    run a small end-to-end deployment
     nakika stats                   run the demo deployment, dump its metrics
     nakika trace                   run the demo deployment, show slowest traces
     nakika chaos                   run a seeded fault-injection scenario
     nakika version                 print the library version *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let make_ctx ~fuel ~heap =
  let ctx = Core.Script.Interp.create ~max_fuel:fuel ~max_heap_bytes:heap () in
  Core.Vocab.Platform_v.install_all (Core.Vocab.Hostcall.stub ()) ctx;
  Core.Vocab.Eval_v.install ctx;
  ctx

let report_script_error = function
  | Core.Script.Value.Script_error msg ->
    Printf.eprintf "runtime error: %s\n" msg;
    1
  | Core.Script.Parser.Parse_error (msg, pos) ->
    Printf.eprintf "parse error at %d:%d: %s\n" pos.Core.Script.Ast.line pos.col msg;
    1
  | Core.Script.Lexer.Lex_error (msg, pos) ->
    Printf.eprintf "lex error at %d:%d: %s\n" pos.Core.Script.Ast.line pos.col msg;
    1
  | Core.Script.Interp.Resource_exhausted msg ->
    Printf.eprintf "sandbox: %s\n" msg;
    1
  | exn -> raise exn

let fuel_arg =
  Arg.(value & opt int 5_000_000 & info [ "fuel" ] ~docv:"UNITS" ~doc:"Sandbox fuel limit.")

let heap_arg =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "heap" ] ~docv:"BYTES" ~doc:"Sandbox script-heap limit.")

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let exec_cmd =
  let run fuel heap path =
    let ctx = make_ctx ~fuel ~heap in
    match Core.Script.Compile.run_string ctx (read_file path) with
    | value ->
      print_endline (Core.Script.Value.to_string value);
      Printf.eprintf "(fuel used: %d, heap used: %d bytes)\n"
        (Core.Script.Interp.fuel_used ctx)
        (Core.Script.Interp.heap_used ctx);
      0
    | exception exn -> report_script_error exn
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Run an NKScript file in a sandboxed scripting context.")
    Term.(const run $ fuel_arg $ heap_arg $ file_arg)

let policies_cmd =
  let run fuel heap path =
    let ctx = make_ctx ~fuel ~heap in
    let registry = Core.Policy.Script_bridge.create_registry () in
    Core.Policy.Script_bridge.install registry ctx;
    match Core.Script.Compile.run_string ctx (read_file path) with
    | exception exn -> report_script_error exn
    | _ ->
      let policies = Core.Policy.Script_bridge.policies registry in
      Printf.printf "%d policy object(s) registered\n" (List.length policies);
      List.iter
        (fun (p : Core.Policy.Policy.t) ->
          Printf.printf "- policy #%d\n" p.Core.Policy.Policy.order;
          let show label = function
            | [] -> ()
            | values -> Printf.printf "    %-12s %s\n" label (String.concat ", " values)
          in
          show "url:" p.Core.Policy.Policy.urls;
          show "client:" p.Core.Policy.Policy.clients;
          show "method:" p.Core.Policy.Policy.methods;
          show "headers:"
            (List.map
               (fun (name, re) -> Printf.sprintf "%s =~ %s" name (Core.Regex.Regex.source re))
               p.Core.Policy.Policy.headers);
          show "nextStages:" p.Core.Policy.Policy.next_stages;
          Printf.printf "    handlers:    onRequest=%s onResponse=%s\n"
            (if p.Core.Policy.Policy.on_request <> None then "yes" else "null")
            (if p.Core.Policy.Policy.on_response <> None then "yes" else "null"))
        policies;
      0
  in
  Cmd.v
    (Cmd.info "policies"
       ~doc:"Evaluate a site script and list the policy objects it registers.")
    Term.(const run $ fuel_arg $ heap_arg $ file_arg)

let nkp_cmd =
  let run fuel heap path =
    let ctx = make_ctx ~fuel ~heap in
    match Core.Pipeline.Nkp.render ctx (read_file path) with
    | html ->
      print_string html;
      if html = "" || html.[String.length html - 1] <> '\n' then print_newline ();
      0
    | exception exn -> report_script_error exn
  in
  Cmd.v
    (Cmd.info "nkp" ~doc:"Render a Na Kika Page (<?nkp ... ?>) to standard output.")
    Term.(const run $ fuel_arg $ heap_arg $ file_arg)

let fmt_cmd =
  let run path =
    match Core.Script.Pretty.format (read_file path) with
    | Ok formatted ->
      print_string formatted;
      0
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "fmt" ~doc:"Pretty-print an NKScript file in canonical form.")
    Term.(const run $ file_arg)

let demo_cmd =
  let run () =
    let cluster = Core.Node.Cluster.create () in
    let origin = Core.Node.Cluster.add_origin cluster ~name:"www.example.edu" () in
    Core.Node.Origin.set_static origin ~path:"/index.html" ~max_age:300
      "<html>hello from the origin</html>";
    Core.Node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
      ~max_age:300
      {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("origin", "edge"));
}
p.register();
|};
    let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
    let client = Core.Node.Cluster.add_client cluster ~name:"client" in
    Core.Node.Cluster.fetch cluster ~client ~proxy
      (Core.Http.Message.request "http://www.example.edu.nakika.net/index.html")
      (fun resp ->
        Printf.printf "%d %s\n" resp.Core.Http.Message.status
          (Core.Http.Body.to_string resp.Core.Http.Message.resp_body));
    Core.Node.Cluster.run cluster;
    ignore proxy;
    0
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a minimal end-to-end deployment on the simulator.")
    Term.(const run $ const ())

(* The telemetry subcommands observe a slightly richer version of the
   demo deployment: two sites (one scripted, one plain), with repeated
   requests so the traces show cache hits next to origin fetches. *)
let telemetry_scenario () =
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.example.edu" () in
  Core.Node.Origin.set_static origin ~path:"/index.html" ~max_age:300
    "<html>hello from the origin</html>";
  Core.Node.Origin.set_static origin ~path:"/news.html" ~max_age:0
    "<html>rolling news content</html>";
  Core.Node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
    ~max_age:300
    {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("origin", "edge"));
}
p.register();
|};
  let plain = Core.Node.Cluster.add_origin cluster ~name:"static.example.org" () in
  Core.Node.Origin.set_static plain ~path:"/logo.png" ~content_type:"image/png"
    ~max_age:300 (String.make 2048 'x');
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Core.Node.Cluster.add_client cluster ~name:"client" in
  let get url =
    Core.Node.Cluster.fetch cluster ~client ~proxy (Core.Http.Message.request url)
      (fun _ -> ());
    Core.Node.Cluster.run cluster
  in
  List.iter get
    [
      "http://www.example.edu.nakika.net/index.html";
      "http://www.example.edu.nakika.net/index.html";
      "http://www.example.edu.nakika.net/news.html";
      "http://www.example.edu.nakika.net/news.html";
      "http://static.example.org.nakika.net/logo.png";
      "http://static.example.org.nakika.net/logo.png";
      "http://www.example.edu.nakika.net/index.html";
    ];
  proxy

(* The proxies behind [stats --health] are provisioned from a capacity
   plan rather than a hand-built config, so the health table can show
   the plan hash each node runs under — the audit handle an operator
   compares against the plan text they think they deployed. *)
let health_plan_text =
  "# stats --health provisioning\n\
   node \"*.nakika.net\" {\n\
  \  diffusion { enabled = on }\n\
  \  hotspots { enabled = on\n\
  \             threshold = 3\n\
  \             replicas = 2\n\
  \             ttl = 60s\n\
  \             halflife = 5s }\n\
  \  deadline { request = 2s\n\
  \             hedge = on\n\
  \             retry_budget = 10% }\n\
   }\n"

let health_config () =
  let report = Core.Provision.Provision.compile health_plan_text in
  match Core.Provision.Provision.config_for report ~node:"nk1.nakika.net" with
  | Some config -> config
  | None -> failwith "stats --health: embedded capacity plan failed to compile"

(* The overload scenario behind [stats --health]: a flash crowd swamps
   one of two proxies (its admission queue sheds, and with diffusion on
   it offloads executions toward the idle one), a handful of fetches
   toward a dead origin trip that origin's circuit breaker, and a
   steady crowd on an uncacheable live page keeps hitting the DHT so
   its key crosses the plan's hotspot threshold. *)
let health_scenario () =
  let epoch = Core.Sim.Sim.epoch in
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.fail_origin plan ~host:"dead.example.org" ~at:epoch
    ~until:(epoch +. 3600.0);
  let cluster = Core.Node.Cluster.create ~faults:plan () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"www.example.edu" () in
  Core.Node.Origin.set_static origin ~path:"/index.html" ~max_age:300
    "<html>hello from the origin</html>";
  let dead = Core.Node.Cluster.add_origin cluster ~name:"dead.example.org" () in
  Core.Node.Origin.set_static dead ~path:"/index.html" ~max_age:0 "<html>unreachable</html>";
  let live = Core.Node.Cluster.add_origin cluster ~name:"live.example.net" () in
  Core.Node.Origin.set_static live ~path:"/scores.html" ~max_age:0 "<html>live scores</html>";
  let config = health_config () in
  let p1 = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let p2 = Core.Node.Cluster.add_proxy cluster ~name:"nk2.nakika.net" ~config () in
  let client = Core.Node.Cluster.add_client cluster ~name:"client" in
  let sim = Core.Node.Cluster.sim cluster in
  let recorder = Core.Workload.Driver.recorder cluster in
  let send_at at proxy url =
    Core.Sim.Sim.schedule_at sim at (fun () ->
        Core.Workload.Driver.send recorder ~client ~proxy:(Some proxy) ~timeout:10.0
          (Core.Http.Message.request url))
  in
  (* The crowd starts after the first health tick (1 s) so the proxies
     have reported their pressure once and diffusion has candidates to
     offload into. *)
  for i = 0 to 299 do
    send_at (epoch +. 1.5 +. (0.001 *. float_of_int i)) p1
      "http://www.example.edu.nakika.net/index.html"
  done;
  for i = 0 to 5 do
    send_at (epoch +. 1.0 +. float_of_int i) p2 "http://dead.example.org.nakika.net/index.html"
  done;
  (* The live-page crowd: 10 req/s against an uncacheable URL, so each
     request misses the local cache and does a DHT lookup — its decayed
     rate holds above the plan's 3 req/s hotspot threshold right up to
     the snapshot at t = 30 s. *)
  for i = 0 to 199 do
    send_at (epoch +. 10.0 +. (0.1 *. float_of_int i))
      (if i mod 2 = 0 then p1 else p2)
      "http://live.example.net.nakika.net/scores.html"
  done;
  ignore (Core.Workload.Driver.finish recorder ~until:(epoch +. 30.0));
  (cluster, [ p1; p2 ])

let print_health (cluster, proxies) =
  Printf.printf "%-18s %12s %10s %7s %9s %14s %12s %9s %9s %8s %8s %10s\n" "node"
    "queue-delay" "shed-rate" "sheds" "shedding" "open-breakers" "quarantined" "pressure"
    "offloads" "rejects" "ddl-exp" "hedge-wins";
  List.iter
    (fun p ->
      (* The table reads the [health.*] gauges the node publishes each
         report interval; name lists come from the live health view.
         Diffusion columns: current pressure plus cumulative executions
         this node moved elsewhere / refused from elsewhere. *)
      let m = Core.Node.Node.metrics p in
      let h = Core.Node.Node.health p in
      Printf.printf "%-18s %12.4f %10.3f %7d %9s %14.0f %12.0f %9.3f %9d %8d %8d %10d\n"
        (Core.Node.Node.name p)
        (Core.Telemetry.Metrics.gauge m "health.queue_delay")
        (Core.Telemetry.Metrics.gauge m "health.shed_rate")
        (Core.Telemetry.Metrics.counter_total m "admission.sheds")
        (if h.Core.Node.Node.shedding then "yes" else "no")
        (Core.Telemetry.Metrics.gauge m "health.open_breakers")
        (Core.Telemetry.Metrics.gauge m "health.quarantined_sites")
        (Core.Node.Node.pressure p)
        (Core.Telemetry.Metrics.counter_total m "diffusion.offloads")
        (Core.Telemetry.Metrics.counter_total m "diffusion.rejects")
        (Core.Telemetry.Metrics.counter_total m "deadline.expired")
        (Core.Telemetry.Metrics.counter_total m "hedge.wins"))
    proxies;
  List.iter
    (fun p ->
      let h = Core.Node.Node.health p in
      List.iter
        (fun b -> Printf.printf "%s: breaker open: %s\n" (Core.Node.Node.name p) b)
        h.Core.Node.Node.open_breakers;
      List.iter
        (fun site -> Printf.printf "%s: quarantined: %s\n" (Core.Node.Node.name p) site)
        h.Core.Node.Node.quarantined)
    proxies;
  List.iter
    (fun p ->
      Printf.printf "%s: plan %s\n" (Core.Node.Node.name p)
        (match (Core.Node.Node.config p).Core.Node.Config.plan_hash with
         | Some hash -> hash
         | None -> "(none)"))
    proxies;
  (* The hotspot view lives in the shared DHT, not any one node: keys
     whose decayed request rate crossed the plan's threshold, and how
     many sloppy replicas currently serve them. *)
  let dht = Core.Node.Cluster.dht cluster in
  let now = Core.Sim.Sim.now (Core.Node.Cluster.sim cluster) in
  let hot = Core.Overlay.Dht.hotspots dht ~now in
  Printf.printf "hotspots: %d hot key(s), %d sloppy replica placement(s)\n" (List.length hot)
    (Core.Overlay.Dht.sloppy_replicas dht);
  List.iter (fun (key, rate) -> Printf.printf "hot: %s (%.1f req/s)\n" key rate) hot

let stats_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json); ("prom", `Prom) ]) `Table
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:"Output format: $(b,table), $(b,json) (one object per instrument per \
                line), or $(b,prom) (Prometheus text exposition).")
  in
  let health_arg =
    Arg.(
      value & flag
      & info [ "health" ]
          ~doc:
            "Run a small overload scenario (flash crowd on one of two proxies, one dead \
             origin) instead of the demo deployment, and print each node's health view: \
             queue delay, shed rate, open circuit breakers, quarantined sites.")
  in
  let run format health =
    if health then begin
      print_health (health_scenario ());
      0
    end
    else begin
      let proxy = telemetry_scenario () in
      let metrics = Core.Node.Node.metrics proxy in
      (match format with
       | `Table -> print_string (Core.Telemetry.Metrics.to_table metrics)
       | `Json -> print_string (Core.Telemetry.Metrics.to_json_lines metrics)
       | `Prom -> print_string (Core.Telemetry.Metrics.to_prometheus metrics));
      0
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the demo deployment and dump the proxy node's metrics registry \
          (counters, gauges, latency/fuel histograms); with $(b,--health), run an \
          overload scenario and print per-node health instead.")
    Term.(const run $ format_arg $ health_arg)

let trace_cmd =
  let slowest_arg =
    Arg.(
      value & opt int 5
      & info [ "slowest" ] ~docv:"N" ~doc:"Show the $(docv) slowest request traces.")
  in
  let run n =
    let proxy = telemetry_scenario () in
    let tracer = Core.Node.Node.tracer proxy in
    let slowest = Core.Telemetry.Tracer.slowest tracer n in
    Printf.printf "%d trace(s) completed on %s; showing the %d slowest\n"
      (Core.Telemetry.Tracer.completed tracer)
      (Core.Node.Node.name proxy) (List.length slowest);
    List.iter
      (fun trace ->
        print_newline ();
        print_string (Core.Telemetry.Tracer.render trace))
      slowest;
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the demo deployment and render the slowest request traces as span trees \
          (cache lookup, policy match, pipeline stages, origin fetches).")
    Term.(const run $ slowest_arg)

let lint_cmd =
  let files_arg = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE") in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics and cost bounds as JSON.")
  in
  let errors_only_arg =
    Arg.(
      value & flag
      & info [ "errors-only" ]
          ~doc:
            "Report only error-severity diagnostics; warnings neither print nor \
             affect the exit code.")
  in
  let module D = Core.Analysis.Diagnostic in
  let module J = Core.Vocab.Json in
  let json_of_cost (it : Core.Analysis.Cost.item) =
    let base =
      [
        ("name", J.Str it.Core.Analysis.Cost.name);
        ("line", J.Num (float_of_int it.Core.Analysis.Cost.pos.Core.Script.Ast.line));
      ]
    in
    match it.Core.Analysis.Cost.bound with
    | Core.Analysis.Cost.Bounded { fuel; allocs } ->
      J.Obj
        (base
        @ [
            ("bound", J.Str "bounded");
            ("fuel", J.Num (float_of_int fuel));
            ("allocs", J.Num (float_of_int allocs));
          ])
    | Core.Analysis.Cost.Unbounded { reason; _ } ->
      J.Obj (base @ [ ("bound", J.Str "unbounded"); ("reason", J.Str reason) ])
  in
  let run json errors_only paths =
    (* Exit status: 0 clean, 1 warnings only, 2 any error. *)
    let worst = ref 0 in
    let docs =
      List.map
        (fun path ->
          let report = Core.Analysis.Analysis.analyze_program_source (read_file path) in
          let diags =
            if errors_only then
              List.filter
                (fun (d : D.t) -> d.D.severity = D.Error)
                report.Core.Analysis.Analysis.diagnostics
            else report.Core.Analysis.Analysis.diagnostics
          in
          List.iter
            (fun (d : D.t) ->
              match d.D.severity with
              | D.Error -> worst := 2
              | D.Warning -> worst := max !worst 1
              | D.Info -> ())
            diags;
          if not json then
            List.iter
              (fun d -> Printf.printf "%s:%s\n" path (D.to_string d))
              diags;
          J.Obj
            [
              ("file", J.Str path);
              ( "errors",
                J.Num (float_of_int (Core.Analysis.Analysis.errors report)) );
              ( "warnings",
                J.Num (float_of_int (Core.Analysis.Analysis.warnings report)) );
              ("diagnostics", J.Arr (List.map D.to_json diags));
              ( "costs",
                J.Arr (List.map json_of_cost report.Core.Analysis.Analysis.costs)
              );
            ])
        paths
    in
    if json then print_endline (J.print (J.Arr docs))
    else if !worst = 0 then
      Printf.printf "%d file%s clean\n" (List.length paths)
        (if List.length paths = 1 then "" else "s");
    !worst
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze NKScript files: scope/resolution, builtin and \
          vocabulary call shapes, per-handler cost bounds, and sensitive-header \
          taint flows. Exit status is 0 when clean, 1 with warnings only, 2 with \
          errors.")
    Term.(const run $ json_arg $ errors_only_arg $ files_arg)

(* nakika plan: the capacity-plan toolchain. Mirrors `nakika lint` —
   same diagnostic format, same JSON schema (one encoder,
   [Diagnostic.to_json]), same 0/1/2 exit convention. *)
let plan_cmd =
  let module D = Core.Analysis.Diagnostic in
  let module J = Core.Vocab.Json in
  let module P = Core.Provision.Provision in
  let files_arg = Arg.(non_empty & pos_all file [] & info [] ~docv:"PLAN") in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  let exit_of (reports : P.report list) =
    List.fold_left
      (fun worst r ->
        if P.errors r > 0 then 2 else if P.warnings r > 0 then max worst 1 else worst)
      0 reports
  in
  let print_reports ~json pairs =
    if json then
      print_endline
        (J.print
           (J.Arr
              (List.map
                 (fun (path, (r : P.report)) ->
                   J.Obj
                     [
                       ("file", J.Str path);
                       ( "hash",
                         match P.hash r with Some h -> J.Str h | None -> J.Null );
                       ("errors", J.Num (float_of_int (P.errors r)));
                       ("warnings", J.Num (float_of_int (P.warnings r)));
                       ("diagnostics", J.Arr (List.map D.to_json r.P.diagnostics));
                     ])
                 pairs)))
    else begin
      List.iter
        (fun (path, (r : P.report)) ->
          List.iter
            (fun d -> Printf.printf "%s:%s\n" path (D.to_string d))
            r.P.diagnostics)
        pairs;
      let worst = exit_of (List.map snd pairs) in
      if worst = 0 then
        Printf.printf "%d plan%s clean\n" (List.length pairs)
          (if List.length pairs = 1 then "" else "s")
    end
  in
  let check_cmd =
    let run json paths =
      let pairs = List.map (fun path -> (path, P.check (read_file path))) paths in
      print_reports ~json pairs;
      exit_of (List.map snd pairs)
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Statically verify capacity plans: units and ranges, threshold ordering, \
            share feasibility against admission capacity, rule shadowing. Exit status \
            is 0 when clean, 1 with warnings only, 2 with errors.")
      Term.(const run $ json_arg $ files_arg)
  in
  let compile_cmd =
    let run json paths =
      let pairs = List.map (fun path -> (path, P.compile (read_file path))) paths in
      if json then
        print_endline
          (J.print
             (J.Arr
                (List.map
                   (fun (path, (r : P.report)) ->
                     J.Obj
                       [
                         ("file", J.Str path);
                         ( "hash",
                           match P.hash r with Some h -> J.Str h | None -> J.Null );
                         ("errors", J.Num (float_of_int (P.errors r)));
                         ("warnings", J.Num (float_of_int (P.warnings r)));
                         ("diagnostics", J.Arr (List.map D.to_json r.P.diagnostics));
                         ( "nodes",
                           J.Arr
                             (List.map
                                (fun (l : Core.Provision.Lower.lowered) ->
                                  let a =
                                    Core.Provision.Verify.admission_of l.Core.Provision.Lower.config
                                  in
                                  J.Obj
                                    [
                                      ("pattern", J.Str l.Core.Provision.Lower.node_pattern);
                                      ( "admission_capacity",
                                        J.Num (float_of_int a.Core.Resource.Admission.capacity) );
                                      ( "shares",
                                        J.Arr
                                          (List.map
                                             (fun (site, f) ->
                                               J.Obj
                                                 [
                                                   ("site", J.Str site);
                                                   ("fraction", J.Num f);
                                                 ])
                                             a.Core.Resource.Admission.shares) );
                                    ])
                                r.P.lowered) );
                       ])
                   pairs)))
      else
        List.iter
          (fun (path, (r : P.report)) ->
            List.iter
              (fun d -> Printf.printf "%s:%s\n" path (D.to_string d))
              r.P.diagnostics;
            match P.hash r with
            | Some h when P.errors r = 0 ->
              Printf.printf "%s: plan %s -> %d node config(s)\n" path h
                (List.length r.P.lowered)
            | _ -> ())
          pairs;
      exit_of (List.map snd pairs)
    in
    Cmd.v
      (Cmd.info "compile"
         ~doc:
           "Verify capacity plans and lower them to node configurations; the lowered \
            configs additionally pass the node-construction validator, so a clean \
            compile is a config every node accepts.")
      Term.(const run $ json_arg $ files_arg)
  in
  let explain_cmd =
    let run paths =
      let pairs = List.map (fun path -> (path, P.compile (read_file path))) paths in
      List.iter
        (fun (path, (r : P.report)) ->
          List.iter
            (fun d -> Printf.printf "%s:%s\n" path (D.to_string d))
            r.P.diagnostics;
          if P.errors r = 0 then print_string (P.explain r))
        pairs;
      exit_of (List.map snd pairs)
    in
    Cmd.v
      (Cmd.info "explain"
         ~doc:
           "Show the lowering map of a verified plan: which plan field became which \
            node-config knob, plus the per-site share, quarantine and sandbox-cap \
            tables.")
      Term.(const run $ files_arg)
  in
  Cmd.group
    (Cmd.info "plan"
       ~doc:
         "Work with declarative capacity plans: $(b,check) verifies, $(b,compile) \
          lowers to node configs, $(b,explain) shows the lowering map.")
    [ check_cmd; compile_cmd; explain_cmd ]

(* A seeded chaos run: the chaos test suite's scenario and schedule
   envelope (drops <= 30%, partitions that always heal, at most one
   crash per proxy), derived deterministically from --seed so a failure
   seen in CI can be replayed locally with the same number. *)
let chaos_cmd =
  let module Chaos = Core.Workload.Chaos in
  let module Metrics = Core.Telemetry.Metrics in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the fault schedule; the same seed reproduces the same run.")
  in
  let run seed =
    let plan = Chaos.random_plan seed in
    let run = Chaos.run_chaos ~seed:(Core.Faults.Plan.seed plan) plan in
    let m = Metrics.create () in
    Chaos.merge_fault_telemetry ~into:m run;
    List.iter (fun p -> Metrics.merge ~into:m (Core.Node.Node.metrics p)) run.Chaos.proxies;
    let issued = run.Chaos.issued and answered = List.length run.Chaos.answers in
    let ok =
      List.length
        (List.filter
           (fun (a : Core.Workload.Driver.answer) ->
             Core.Http.Status.is_success a.response.Core.Http.Message.status)
           run.Chaos.answers)
    in
    Printf.printf "chaos run (seed %d): %s\n" seed (Core.Faults.Plan.describe plan);
    Printf.printf "  requests:     %d issued, %d answered, %d ok, %d failed\n" issued
      answered ok (answered - ok);
    Printf.printf "  stale served: %d\n" (Metrics.counter m "cache.stale_served");
    Printf.printf "  network:      %d dropped, %d callbacks lost to crashes\n"
      (Metrics.counter m "net.dropped")
      (Metrics.counter m "net.lost-callbacks");
    Printf.printf "  crashes:      %d\n" (Metrics.counter m "node.crashes");
    Printf.printf "  bus:          %d retries, %d dead letters\n"
      (Metrics.counter m "bus.retries")
      (Metrics.counter m "bus.dead_letters");
    Printf.printf "  dht:          %d replica fallbacks\n" (Metrics.counter m "dht.fallbacks");
    if answered <> issued then begin
      Printf.printf "  %d request(s) HUNG — this is a bug\n" (issued - answered);
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a 4-node deployment under a seeded fault-injection schedule (message \
          drops, latency spikes, healing partitions, host crash/restart) and print a \
          degradation summary. The same seed reproduces the same run; exits non-zero \
          if any request hangs.")
    Term.(const run $ seed_arg)

let version_cmd =
  let run () =
    Printf.printf "nakika %s\n" Core.version;
    0
  in
  Cmd.v (Cmd.info "version" ~doc:"Print the library version.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "nakika" ~version:Core.version
      ~doc:"Development tools for the Na Kika edge-side computing network."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            exec_cmd; policies_cmd; lint_cmd; plan_cmd; fmt_cmd; nkp_cmd; demo_cmd;
            stats_cmd; trace_cmd; chaos_cmd; version_cmd;
          ]))
