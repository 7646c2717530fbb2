(* Bechamel micro-benchmarks of the real OCaml implementation — one
   Test.make per reproduced table/figure, measuring the operations that
   artifact exercises. The simulated experiments report the paper's
   latencies under the 2006 cost model; these report what our code
   actually costs on the present machine. *)

open Bechamel
open Toolkit

let payload_1k = String.init 1024 (fun i -> Char.chr (i mod 256))

(* Table 2 / M1: predicate evaluation, decision trees, script handling. *)
let policies_100 =
  List.init 100 (fun i ->
      Core.Policy.Policy.make ~urls:[ Printf.sprintf "site%d.org" i ] ~order:i)

let tree_100 = Core.Policy.Decision_tree.build policies_100

let match_request = Core.Http.Message.request "http://site42.org/x"

let match1_script = Core.Workload.Static_page.pred_script ~host:"h.org" ~n:0 ~matching:true

let handler_stage =
  match
    Core.Pipeline.Stage.of_script ~url:"bench" ~host:(Core.Vocab.Hostcall.stub ())
      ~source:
        {|
var p = new Policy();
p.onResponse = function() {
  var body = "", c;
  while ((c = Response.read()) != null) { body += c; }
  Response.write(body.toUpperCase());
}
p.register();
|}
      ()
  with
  | Ok s -> s
  | Error e -> failwith e

let handler =
  match Core.Pipeline.Stage.policies handler_stage with
  | [ p ] -> Option.get p.Core.Policy.Policy.on_response
  | _ -> assert false

let run_handler () =
  let req = Core.Http.Message.request "http://x.org/" in
  let resp = Core.Http.Message.response ~body:Core.Workload.Static_page.page_body () in
  ignore (Core.Pipeline.Pipeline.run_handler handler_stage ~this_request:req ~response:(Some resp) handler)

(* F7 / E1: the XML rendering the SIMM site script performs, and S1:
   the origin building the lecture XML it renders. Guarded: on the SIMM
   edge deployment both run once per lecture request. *)
let lecture_xml = Core.Workload.Simm.lecture_xml ~module_:1 ~lecture:1 ~student:"bench"

let test_render_lecture =
  Test.make ~name:"F7: parse+render lecture XML"
    (Staged.stage (fun () -> Core.Vocab.Xml.to_html Core.Workload.Simm.stylesheet lecture_xml))

let test_lecture_xml =
  Test.make ~name:"S1: SIMM lecture XML (origin)"
    (Staged.stage (fun () -> Core.Workload.Simm.lecture_xml ~module_:3 ~lecture:7 ~student:"bench"))

(* Fig. 2: image transcoding. *)
let image_352x416 =
  Core.Vocab.Image.encode (Core.Vocab.Image.synthesize ~width:352 ~height:416 ~seed:2)
    Core.Vocab.Image.Rle

let cache_for_bench = Core.Cache.Http_cache.create ()

let () =
  Core.Cache.Http_cache.insert cache_for_bench ~now:0.0 ~key:"bench" ~expiry:(Some 1e9)
    (Core.Http.Message.response ~body:payload_1k ())

let regex_ua = Core.Regex.Regex.compile "Nokia|SonyEricsson|Samsung"

(* C1: the NKScript execution pipeline — parse, closure-compile and
   execute — on a standard handler-style workload (string building +
   arithmetic, the shape of the M1 onResponse handler). The
   cached-execute row is what a warm stage pays per invocation. *)
let workload_script =
  {|
function handler() {
  var s = "";
  for (var i = 0; i < 60; i++) { s += "x"; }
  var n = 0;
  for (var i = 0; i < 40; i++) { n += i * i; }
  return s.length + n;
}
handler();
|}

let workload_ast = Core.Script.Parser.parse workload_script

let workload_prog = Core.Script.Compile.compile workload_ast

let fresh_ctx () =
  let ctx = Core.Script.Interp.create () in
  Core.Script.Builtins.install ctx;
  ctx

let cp_ctx = fresh_ctx ()

(* P1: what every handler call pays before the script runs — building
   the Request and Response globals. Guarded: a SIMM lecture runs
   several handlers. *)
let globals_ctx = fresh_ctx ()

let globals_request =
  Core.Http.Message.request "http://simm.med.nyu.edu/content/m3/lec7.xml?student=bench"

let globals_response =
  Core.Http.Message.response ~headers:[ ("Content-Type", "text/xml") ] ~body:lecture_xml ()

let install_globals () =
  Core.Vocab.Http_v.install_request globals_ctx globals_request;
  Core.Vocab.Http_v.install_response globals_ctx globals_response

let test_install_globals =
  Test.make ~name:"P1: install Request+Response objects" (Staged.stage install_globals)

(* Named so the regression guard can re-run exactly these two. *)
let test_cached_execute =
  Test.make ~name:"C1: cached execute (compiled)"
    (Staged.stage (fun () ->
         Core.Script.Interp.reset_usage cp_ctx;
         ignore (Core.Script.Compile.run cp_ctx workload_prog)))

let test_transcode =
  Test.make ~name:"Fig2: transcode 352x416 -> 176x208"
    (Staged.stage (fun () ->
         match Core.Vocab.Image.decode image_352x416 with
         | Ok (img, _) ->
           Core.Vocab.Image.encode
             (Core.Vocab.Image.scale img ~width:176 ~height:208)
             Core.Vocab.Image.Rle
         | Error e -> failwith e))

(* O9: overlay membership at planet scale — join/leave and successor
   lookups on a 1000-node ring. Named (and guarded) so the O(log n)
   ordered-set membership cannot silently regress to the old
   re-sort-per-join / array-round-trip-per-leave behavior. *)
let ring_1000 =
  let r = Core.Overlay.Ring.create () in
  for i = 1 to 1000 do
    Core.Overlay.Ring.join r (Core.Overlay.Node_id.of_string (Printf.sprintf "bench-node-%d" i))
  done;
  r

let ring_counter = ref 0

let test_ring_churn =
  Test.make ~name:"O9: ring join+leave (n=1000)"
    (Staged.stage (fun () ->
         incr ring_counter;
         let id = Core.Overlay.Node_id.of_int (!ring_counter land 0xfffff) in
         Core.Overlay.Ring.join ring_1000 id;
         Core.Overlay.Ring.leave ring_1000 id))

let test_ring_successor =
  Test.make ~name:"O9: ring successor (n=1000)"
    (Staged.stage (fun () ->
         incr ring_counter;
         ignore
           (Core.Overlay.Ring.successor ring_1000
              (Core.Overlay.Node_id.of_int (!ring_counter land 0x3fffff)))))

(* O9: the two per-request overlay paths at fleet scale — a greedy
   route across the 1000-node ring, and a redirector pick among 1000
   proxies for 1000 clients each linked to one of them (the zipf-fleet
   topology). The redirector keeps no per-client state, so every pick
   is a first pick. Guarded so a route stays one successor query per hop
   and a pick never ranks the whole fleet. *)
let ring_members = Array.of_list (Core.Overlay.Ring.nodes ring_1000)

let ring_keys =
  Array.init 1024 (fun i -> Core.Overlay.Node_id.of_string (Printf.sprintf "bench-key-%d" i))

let test_ring_lookup_path =
  Test.make ~name:"O9: ring lookup_path (n=1000)"
    (Staged.stage (fun () ->
         incr ring_counter;
         let from = ring_members.(!ring_counter mod Array.length ring_members) in
         ignore (Core.Overlay.Ring.lookup_path ring_1000 ~from ~key:ring_keys.(!ring_counter land 1023))))

let fleet_redirector, fleet_clients =
  let net = Core.Sim.Net.create (Core.Sim.Sim.create ()) ~default_latency:0.005 () in
  let red = Core.Overlay.Redirector.create net in
  let clients =
    Array.init 1000 (fun i ->
        let proxy = Core.Sim.Net.add_host net ~name:(Printf.sprintf "edge-%04d" i) () in
        Core.Overlay.Redirector.add_proxy red proxy;
        let client = Core.Sim.Net.add_host net ~name:(Printf.sprintf "client-%04d" i) () in
        Core.Sim.Net.connect net client proxy ~latency:0.0005 ~bandwidth:12_500_000.0;
        client)
  in
  (red, clients)

let fleet_rng = Core.Util.Prng.create 23

let test_redirector_pick =
  Test.make ~name:"O9: redirector pick (1000 proxies, cold clients)"
    (Staged.stage (fun () ->
         incr ring_counter;
         ignore
           (Core.Overlay.Redirector.pick fleet_redirector ~spread:2 ~rng:fleet_rng
              ~client:fleet_clients.(!ring_counter mod Array.length fleet_clients) ())))

(* D1: the tail-tolerance fast path — what every request pays once
   deadlines are on (admission + per-hop clamp + expiry check), and
   what every peer fetch pays once hedging is on (token accounting +
   p95 delay from a warm histogram + the hedge grant). Both guarded:
   these sit on the per-request path of every tail-enabled node. *)
let deadline_req =
  let r = Core.Http.Message.request "http://x.org/" in
  Core.Http.Message.set_req_header r Core.Resource.Deadline.header "1.5";
  r

let test_deadline_check =
  Test.make ~name:"D1: deadline check (admit+clamp+expired)"
    (Staged.stage (fun () ->
         match Core.Resource.Deadline.admit ~now:100.0 ~budget:2.5 deadline_req with
         | Some d ->
           ignore (Core.Resource.Deadline.clamp d ~now:100.2 3.0);
           ignore (Core.Resource.Deadline.expired d ~now:100.2)
         | None -> assert false))

let hedge_histogram =
  let m = Core.Telemetry.Metrics.create () in
  for _ = 1 to 40 do
    Core.Telemetry.Metrics.observe m "fetch.latency" 0.02
  done;
  Core.Telemetry.Metrics.histogram m "fetch.latency"

(* rate 1.0: each primary earns a full token, so the per-op cost stays
   the grant path (never the dry-bucket early-out). *)
let hedge_governor = Core.Resource.Hedge.create ~rate:1.0 ()

let test_hedge_decision =
  Test.make ~name:"D1: hedge decision (note+delay+grant)"
    (Staged.stage (fun () ->
         Core.Resource.Hedge.note_primary hedge_governor;
         ignore (Core.Resource.Hedge.delay ?histogram:hedge_histogram ~fallback:0.75 ());
         ignore (Core.Resource.Hedge.try_hedge hedge_governor)))

(* H1: the simulator's bandwidth model sizes every exchange; most SIMM
   cache hits are 350 KB videos. Guarded so sizing stays arithmetic on
   the tracked body length instead of serialising the message. *)
let video_response =
  Core.Http.Message.response
    ~headers:[ ("Content-Type", "video/nkv") ]
    ~body:(String.make (350 * 1024) 'v') ()

let test_wire_size =
  Test.make ~name:"H1: response wire size (350 KB body)"
    (Staged.stage (fun () -> Core.Http.Codec.response_wire_size video_response))

(* Q1 and N1: the simulator substrate every simulated hop runs on.
   Q1 schedules and runs one event against a queue 18k deep, the
   zipf-fleet peak (mostly timeouts that never fire); N1 sends 1 KB
   over a default link and runs the delivery, so the queue stays
   empty. Guarded so an event stays a few boxed floats beyond its
   thunk (six words per schedule+step: the sifts take the entry's time
   boxed and [step] boxes the clock) and a send stays one out-link
   lookup. *)
let deep_sim =
  let sim = Core.Sim.Sim.create () in
  for i = 1 to 18_000 do
    Core.Sim.Sim.schedule sim ~daemon:true ~delay:(1e6 +. float_of_int i) ignore
  done;
  sim

let test_schedule_step =
  Test.make ~name:"Q1: sim schedule+step (depth 18k)"
    (Staged.stage (fun () ->
         Core.Sim.Sim.schedule deep_sim ~delay:0.001 ignore;
         ignore (Core.Sim.Sim.step deep_sim)))

let send_net, send_src, send_dst =
  let net = Core.Sim.Net.create (Core.Sim.Sim.create ()) () in
  let src = Core.Sim.Net.add_host net ~name:"src" () in
  let dst = Core.Sim.Net.add_host net ~name:"dst" () in
  (net, src, dst)

let test_net_send =
  Test.make ~name:"N1: Net.send (default link)"
    (Staged.stage (fun () ->
         Core.Sim.Net.send send_net ~src:send_src ~dst:send_dst ~size:1024 ignore;
         ignore (Core.Sim.Sim.step (Core.Sim.Net.sim send_net))))

let tests =
  Test.make_grouped ~name:"nakika"
    [
      Test.make ~name:"T2/X1: sha256 1KB" (Staged.stage (fun () -> Core.Crypto.Sha256.digest payload_1k));
      Test.make ~name:"T2: header regex match"
        (Staged.stage (fun () -> Core.Regex.Regex.matches regex_ua ~step:ignore "Mozilla/4.0 (Nokia6600)"));
      Test.make ~name:"T2: decision tree lookup (100 policies)"
        (Staged.stage (fun () -> Core.Policy.Decision_tree.find_closest tree_100 match_request));
      Test.make ~name:"T2: brute-force match (100 policies)"
        (Staged.stage (fun () -> Core.Policy.Policy.closest_match policies_100 match_request));
      Test.make ~name:"T2: parse Match-1 site script"
        (Staged.stage (fun () -> Core.Script.Parser.parse match1_script));
      Test.make ~name:"M1: run onResponse handler (2KB body)" (Staged.stage run_handler);
      Test.make ~name:"C1: parse handler script"
        (Staged.stage (fun () -> Core.Script.Parser.parse workload_script));
      Test.make ~name:"C1: compile parsed script"
        (Staged.stage (fun () -> Core.Script.Compile.compile workload_ast));
      test_cached_execute;
      Test.make ~name:"C1: first execute (parse+compile+run)"
        (Staged.stage (fun () ->
             ignore
               (Core.Script.Compile.run (fresh_ctx ())
                  (Core.Script.Compile.compile (Core.Script.Parser.parse workload_script)))));
      (* L1: admission-time lint from source — parse plus the four
         analysis passes. A stage build pays only the passes: it
         analyzes the AST the script cache already holds. *)
      Test.make ~name:"L1: analyze handler script (uncached)"
        (Staged.stage (fun () ->
             ignore (Core.Analysis.Analysis.analyze_program_source workload_script)));
      Test.make ~name:"T2: proxy cache hit"
        (Staged.stage (fun () -> Core.Cache.Http_cache.lookup cache_for_bench ~now:1.0 ~key:"bench"));
      test_render_lecture;
      test_lecture_xml;
      test_install_globals;
      test_transcode;
      test_ring_churn;
      test_ring_successor;
      test_ring_lookup_path;
      test_redirector_pick;
      test_deadline_check;
      test_hedge_decision;
      test_wire_size;
      test_schedule_step;
      test_net_send;
      Test.make ~name:"E2: render register.nkp page"
        (Staged.stage (fun () ->
             let ctx = Core.Script.Interp.create () in
             Core.Script.Builtins.install ctx;
             Core.Vocab.Eval_v.install ctx;
             Core.Script.Interp.define_global ctx "Request"
               (Core.Script.Value.native "q" (fun _ _ -> Core.Script.Value.Vnull));
             ignore (Core.Pipeline.Nkp.render ctx "x<?nkp 1 + 1 ?>y")));
    ]

let run_tests tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> (name, est) :: acc
      | _ -> (name, nan) :: acc)
    results []
  |> List.sort compare

(* Allocation rates for the rows the fast-path work targets. *)
let words_rows () =
  [
    ( "C1: cached execute (compiled)",
      Harness.words_per_op (fun () ->
          Core.Script.Interp.reset_usage cp_ctx;
          Core.Script.Compile.run cp_ctx workload_prog) );
    ( "F7: parse+render lecture XML",
      Harness.words_per_op (fun () ->
          Core.Vocab.Xml.to_html Core.Workload.Simm.stylesheet lecture_xml) );
    ( "S1: SIMM lecture XML (origin)",
      Harness.words_per_op (fun () ->
          Core.Workload.Simm.lecture_xml ~module_:3 ~lecture:7 ~student:"bench") );
    ("P1: install Request+Response objects", Harness.words_per_op install_globals);
    ( "Fig2: transcode 352x416 -> 176x208",
      Harness.words_per_op (fun () ->
          match Core.Vocab.Image.decode image_352x416 with
          | Ok (img, _) ->
            Core.Vocab.Image.encode
              (Core.Vocab.Image.scale img ~width:176 ~height:208)
              Core.Vocab.Image.Rle
          | Error e -> failwith e) );
  ]

let micro () =
  Harness.header "Bechamel micro-benchmarks (real implementation, this machine)";
  let rows = run_tests tests in
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-44s %s/op\n" name pretty)
    rows;
  (* Persist the rows into the experiment registry so BENCH_micro.json
     carries the baseline forward. *)
  let words = words_rows () in
  List.iter
    (fun (name, w) -> Printf.printf "  %-44s %8.0f minor words/op\n" name w)
    words;
  let stats = Core.Script.Compile.cache_stats () in
  Printf.printf "  %-44s %d hits / %d misses / %d entries\n" "C1: compiled-program cache" stats.Core.Script.Compile.hits
    stats.Core.Script.Compile.misses stats.Core.Script.Compile.entries;
  match Harness.registry () with
  | None -> ()
  | Some m ->
    List.iter
      (fun (name, ns) ->
        Core.Telemetry.Metrics.set_gauge m ~labels:[ ("test", name) ] "micro.ns_per_op" ns)
      rows;
    List.iter
      (fun (name, w) ->
        Core.Telemetry.Metrics.set_gauge m ~labels:[ ("test", name) ] "micro.words_per_op" w)
      words;
    Core.Telemetry.Metrics.set_gauge m "micro.compile_cache.hits" (float_of_int stats.Core.Script.Compile.hits);
    Core.Telemetry.Metrics.set_gauge m "micro.compile_cache.misses"
      (float_of_int stats.Core.Script.Compile.misses)

(* --- bench-regression guard ------------------------------------------- *)

(* CI gate: re-measure the guarded fast-path rows (interpreter, the
   SIMM lecture path, transcode, 1000-node ring membership, routing
   and redirection, deadline and hedge checks, wire sizing, the event
   queue and a network send) and fail if
   any regressed more than [tolerance] against the committed
   BENCH_micro.json. Noise discipline: each row is measured three times
   and the *minimum* is compared — "has the code gotten slower" is a
   question about the best case, not the scheduler. Escape hatch:
   NAKIKA_BENCH_GUARD_SKIP=1 (for machines with incomparable
   baselines). *)

let guard_rows =
  [
    "nakika/C1: cached execute (compiled)";
    "nakika/F7: parse+render lecture XML";
    "nakika/S1: SIMM lecture XML (origin)";
    "nakika/P1: install Request+Response objects";
    "nakika/Fig2: transcode 352x416 -> 176x208";
    "nakika/O9: ring join+leave (n=1000)";
    "nakika/O9: ring successor (n=1000)";
    "nakika/O9: ring lookup_path (n=1000)";
    "nakika/O9: redirector pick (1000 proxies, cold clients)";
    "nakika/D1: deadline check (admit+clamp+expired)";
    "nakika/D1: hedge decision (note+delay+grant)";
    "nakika/H1: response wire size (350 KB body)";
    "nakika/Q1: sim schedule+step (depth 18k)";
    "nakika/N1: Net.send (default link)";
  ]

let guard_tolerance = 1.25

let baseline_ns path =
  (* BENCH_micro.json is JSON-lines; pick out micro.ns_per_op gauges. *)
  let ic = open_in path in
  let entries = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Core.Vocab.Json.parse line with
       | Ok (Core.Vocab.Json.Obj fields) ->
         let str k =
           match List.assoc_opt k fields with
           | Some (Core.Vocab.Json.Str s) -> Some s
           | _ -> None
         in
         if str "name" = Some "micro.ns_per_op" then begin
           match (List.assoc_opt "labels" fields, List.assoc_opt "value" fields) with
           | Some (Core.Vocab.Json.Obj labels), Some (Core.Vocab.Json.Num v) -> (
             match List.assoc_opt "test" labels with
             | Some (Core.Vocab.Json.Str test) -> entries := (test, v) :: !entries
             | _ -> ())
           | _ -> ()
         end
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  !entries

let guard () =
  Harness.header "Bench-regression guard (fast-path rows vs committed BENCH_micro.json)";
  match Sys.getenv_opt "NAKIKA_BENCH_GUARD_SKIP" with
  | Some _ -> print_endline "  NAKIKA_BENCH_GUARD_SKIP set; skipping."
  | None ->
    let path = "BENCH_micro.json" in
    if not (Sys.file_exists path) then
      Printf.printf "  no %s baseline; nothing to guard.\n" path
    else begin
      let baseline = baseline_ns path in
      let guard_tests =
        Test.make_grouped ~name:"nakika"
          [
            test_cached_execute;
            test_render_lecture;
            test_lecture_xml;
            test_install_globals;
            test_transcode;
            test_ring_churn;
            test_ring_successor;
            test_ring_lookup_path;
            test_redirector_pick;
            test_deadline_check;
            test_hedge_decision;
            test_wire_size;
            test_schedule_step;
            test_net_send;
          ]
      in
      (* min over three measurement rounds, per row *)
      let fresh_rows =
        List.fold_left
          (fun acc _ ->
            List.map
              (fun (name, ns) ->
                match List.assoc_opt name acc with
                | Some prev -> (name, Float.min prev ns)
                | None -> (name, ns))
              (run_tests guard_tests))
          (run_tests guard_tests)
          [ (); () ]
      in
      let failures = ref 0 in
      List.iter
        (fun name ->
          match List.assoc_opt name baseline with
          | None -> Printf.printf "  %-44s no baseline row; skipped\n" name
          | Some base ->
            let now = List.assoc_opt name fresh_rows |> Option.value ~default:nan in
            let ratio = now /. base in
            let verdict =
              if Float.is_nan now then "UNMEASURED"
              else if ratio > guard_tolerance then begin
                incr failures;
                "REGRESSED"
              end
              else "ok"
            in
            Printf.printf "  %-44s %8.2f us -> %8.2f us  (%.2fx)  %s\n" name
              (base /. 1e3) (now /. 1e3) ratio verdict)
        guard_rows;
      if !failures > 0 then begin
        Printf.eprintf
          "bench guard: %d row(s) regressed >%.0f%%; set NAKIKA_BENCH_GUARD_SKIP=1 to bypass.\n"
          !failures ((guard_tolerance -. 1.0) *. 100.0);
        exit 1
      end
    end
