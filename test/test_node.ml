(* End-to-end node behaviour on simulated deployments: proxying,
   caching, cooperative caching through the DHT, stage caching and the
   negative cache, URL rewriting, resource controls, hard state, and
   access logs. *)

open Core.Node
open Core.Http

let fetch_sync cluster ~client ?proxy req =
  let result = ref None in
  Cluster.fetch cluster ~client ?proxy req (fun resp -> result := Some resp);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "no response"

let body (r : Message.response) = Body.to_string r.Message.resp_body

let basic_site cluster =
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/index.html" ~max_age:300 "<html>hello</html>";
  origin

let test_plain_proxying () =
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp = fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/index.html") in
  Alcotest.(check int) "status" 200 resp.Message.status;
  Alcotest.(check string) "body" "<html>hello</html>" (body resp);
  Alcotest.(check int) "origin hit: page + nakika.js probe" 2 (Origin.request_count origin)

let test_nakika_url_rewriting () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp =
    fetch_sync cluster ~client ~proxy
      (Message.request "http://www.example.edu.nakika.net/index.html")
  in
  Alcotest.(check int) "rewritten and served" 200 resp.Message.status;
  Alcotest.(check string) "origin content" "<html>hello</html>" (body resp)

let test_cache_hit_avoids_origin () =
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  let before = Origin.request_count origin in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  Alcotest.(check int) "no extra origin fetch" before (Origin.request_count origin);
  Alcotest.(check bool) "cache hit recorded" true
    (Core.Cache.Http_cache.hits (Node.cache proxy) > 0);
  (* The cache counts into the node's registry, once. *)
  Alcotest.(check bool) "the first fetch's misses, in the node's registry" true
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "cache.misses" > 0);
  Alcotest.(check int) "hits read through the registry"
    (Core.Cache.Http_cache.hits (Node.cache proxy))
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "cache.hits")

let test_cache_expiry_refetches () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/short.html" ~max_age:10 "v1";
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/short.html" in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  Origin.set_static origin ~path:"/short.html" ~max_age:10 "v2";
  (* Still fresh: cached v1. *)
  Alcotest.(check string) "fresh" "v1" (body (fetch_sync cluster ~client ~proxy (req ())));
  (* Let it expire. *)
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now (Cluster.sim cluster) +. 11.0) (Cluster.sim cluster);
  Alcotest.(check string) "expired -> refetched" "v2"
    (body (fetch_sync cluster ~client ~proxy (req ())))

let test_dht_cooperative_caching () =
  (* Node B should fetch from node A's cache instead of the origin
     ("one cached copy ... is sufficient for avoiding origin server
     accesses", §1). The site publishes a trivial nakika.js so the
     script, too, is served cooperatively. *)
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    "var p = new Policy(); p.onResponse = function() { }; p.register();";
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  ignore (fetch_sync cluster ~client ~proxy:a (req ()));
  let origin_before = Origin.request_count origin in
  let resp = fetch_sync cluster ~client ~proxy:b (req ()) in
  Alcotest.(check string) "content served" "<html>hello</html>" (body resp);
  Alcotest.(check int) "origin fetches unchanged" origin_before (Origin.request_count origin);
  Alcotest.(check bool) "peer fetch recorded" true
    (Core.Telemetry.Metrics.counter (Node.metrics b) "peer-fetches" > 0)

let test_dht_disabled_goes_to_origin () =
  let config = { Config.default with Config.enable_dht = false } in
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" ~config () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  ignore (fetch_sync cluster ~client ~proxy:a (req ()));
  let before = Origin.request_count origin in
  ignore (fetch_sync cluster ~client ~proxy:b (req ()));
  Alcotest.(check bool) "origin consulted again" true (Origin.request_count origin > before)

let test_site_script_pipeline () =
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("hello", "edge"));
}
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp = fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/index.html") in
  Alcotest.(check string) "transformed" "<html>edge</html>" (body resp);
  Alcotest.(check bool) "stage cached" true (Node.stage_cache_entries proxy >= 1)

let test_cached_stage_starts_clean () =
  (* A stage served from the stage cache reuses its scripting context:
     the next request must start with zero fuel and heap and a live
     context. Each reset publishes the usage it discards, so with four
     requests the histograms hold (top level + one request) and then
     exactly one request's usage twice. A context that kept counting
     would publish growing totals instead. *)
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.replace("hello", "edge"));
}
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  for i = 1 to 4 do
    let resp =
      fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/index.html")
    in
    Alcotest.(check string) (Printf.sprintf "request %d ran the script" i) "<html>edge</html>"
      (body resp)
  done;
  List.iter
    (fun name ->
      match
        Core.Telemetry.Metrics.histogram (Node.metrics proxy)
          ~labels:[ ("site", "www.example.edu") ]
          name
      with
      | None -> Alcotest.failf "no %s histogram" name
      | Some h ->
        let module H = Core.Telemetry.Metrics.Histogram in
        Alcotest.(check int) (name ^ ": one sample per reuse") 3 (H.count h);
        Alcotest.(check (float 1e-9)) (name ^ ": reuse starts from zero")
          (H.max_value h +. (2.0 *. H.min_value h))
          (H.sum h))
    [ "script.fuel"; "script.heap" ]

let test_negative_cache_for_missing_site_script () =
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  let probes_after_first = Origin.request_count origin in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  (* nakika.js was probed once, then negative-cached; the page itself is
     cached too, so no further origin traffic at all. *)
  Alcotest.(check int) "no repeated nakika.js probes" probes_after_first
    (Origin.request_count origin)

let test_admin_walls_enforced () =
  let wall = Wall_scripts.deny_urls_wall ~urls:[ "forbidden.org" ] ~status:403 in
  let cluster = Cluster.create ~client_wall:wall () in
  let origin = Cluster.add_origin cluster ~name:"forbidden.org" () in
  Origin.set_static origin ~path:"/secret.html" ~max_age:300 "secret";
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp = fetch_sync cluster ~client ~proxy (Message.request "http://forbidden.org/secret.html") in
  Alcotest.(check int) "admission denied" 403 resp.Message.status;
  Alcotest.(check int) "origin untouched" 0 (Origin.request_count origin)

let test_wall_update_via_expiry () =
  (* §3.2: policy updates ship by publishing new scripts; nodes pick
     them up when cached copies expire. *)
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  ignore origin;
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  Alcotest.(check int) "open at first" 200 (fetch_sync cluster ~client ~proxy (req ())).Message.status;
  (* Publish a deny-all client wall. *)
  Origin.set_static (Cluster.nakika_origin cluster) ~path:"/clientwall.js"
    ~content_type:"text/javascript" ~max_age:300
    (Wall_scripts.deny_urls_wall ~urls:[ "www.example.edu" ] ~status:403);
  (* Old wall still cached: *)
  Alcotest.(check int) "still open" 200 (fetch_sync cluster ~client ~proxy (req ())).Message.status;
  (* After the wall script expires (max-age 300) the update applies. *)
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now (Cluster.sim cluster) +. 301.0) (Cluster.sim cluster);
  Alcotest.(check int) "update enforced" 403
    (fetch_sync cluster ~client ~proxy (req ())).Message.status

let test_plain_proxy_config_runs_no_scripts () =
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {| var p = new Policy(); p.onResponse = function() { Response.write("SCRIPTED"); }; p.register(); |};
  let proxy = Cluster.add_proxy cluster ~name:"plain.nakika.net" ~config:Config.plain_proxy () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp = fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/index.html") in
  Alcotest.(check string) "unmodified" "<html>hello</html>" (body resp);
  Alcotest.(check int) "no stages" 0 (Node.stage_cache_entries proxy)

(* The monitor's terminations of [site], as the node's registry counts them. *)
let terminations proxy site =
  Core.Telemetry.Metrics.counter (Node.metrics proxy) ~labels:[ ("site", site) ]
    "monitor.terminations"

let test_memory_bomb_terminated_with_controls () =
  let cluster = Cluster.create () in
  let bomb_origin = Cluster.add_origin cluster ~name:"bomb.example.org" () in
  Core.Workload.Flashcrowd.install_bomb_site bomb_origin;
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  (* Hammer the bomb site for a few simulated seconds. *)
  Core.Workload.Driver.closed_loop cluster ~client ~proxy
    ~until:(Core.Sim.Sim.now sim +. 8.0)
    ~make_request:(fun _ -> Core.Workload.Flashcrowd.bomb_request ())
    ~on_response:(fun _ _ _ _ -> ())
    ();
  Cluster.run cluster;
  Alcotest.(check bool) "bomb site terminated" true (terminations proxy "bomb.example.org" > 0)

let test_no_termination_without_controls () =
  let config = { Config.default with Config.enable_resource_controls = false } in
  let cluster = Cluster.create () in
  let bomb_origin = Cluster.add_origin cluster ~name:"bomb.example.org" () in
  Core.Workload.Flashcrowd.install_bomb_site bomb_origin;
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  Core.Workload.Driver.closed_loop cluster ~client ~proxy
    ~until:(Core.Sim.Sim.now sim +. 5.0)
    ~make_request:(fun _ -> Core.Workload.Flashcrowd.bomb_request ())
    ~on_response:(fun _ _ _ _ -> ())
    ();
  Cluster.run cluster;
  Alcotest.(check int) "nobody terminated" 0
    (Core.Telemetry.Metrics.counter_total (Node.metrics proxy) "monitor.terminations")

(* Resource controls only act on congestion: an uncongested node with
   them gives every answer that one without them gives, byte for byte
   and at the same simulated instant, while the node without them holds
   no control state. The stream mixes a scripted site (its stage loads,
   then serves from the stage cache) with a plain one (a cache miss, then
   hits), and runs long enough for several monitor cycles. *)
let test_controls_invisible_when_uncongested () =
  let run controls =
    let cluster = Cluster.create () in
    let scripted = basic_site cluster in
    Origin.set_static scripted ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
      {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() { Response.write(Response.read().replace("hello", "edge")); }
p.register();
|};
    let plain = Cluster.add_origin cluster ~name:"plain.example.org" () in
    Origin.set_static plain ~path:"/a.html" ~max_age:300 "<html>plain</html>";
    let config = { Config.default with Config.enable_resource_controls = controls } in
    let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
    let client = Cluster.add_client cluster ~name:"c1" in
    let sim = Cluster.sim cluster in
    let recorder = Core.Workload.Driver.recorder cluster in
    for i = 0 to 39 do
      let url =
        if i mod 2 = 0 then "http://www.example.edu/index.html"
        else "http://plain.example.org/a.html"
      in
      Core.Sim.Sim.schedule sim ~delay:(0.1 +. (0.25 *. float_of_int i)) (fun () ->
          Core.Workload.Driver.send recorder ~client ~proxy:(Some proxy) ~timeout:30.0
            (Message.request url))
    done;
    (proxy, Core.Workload.Driver.finish recorder ~until:(Core.Sim.Sim.now sim +. 60.0))
  in
  let answer (a : Core.Workload.Driver.answer) =
    Printf.sprintf "%d %s %d %h %s" a.index a.url a.response.Message.status
      (a.received -. a.sent) (body a.response)
  in
  let on, with_controls = run true and off, without = run false in
  Alcotest.(check int) "every request answered" 40 (List.length without);
  Alcotest.(check bool) "the script ran" true
    (List.exists (fun a -> body a.Core.Workload.Driver.response = "<html>edge</html>") without);
  Alcotest.(check (list string)) "same statuses, bodies and latencies"
    (List.map answer with_controls) (List.map answer without);
  Alcotest.(check bool) "the controlled node holds its state" true
    (Option.is_some (Node.quarantine on) && Option.is_some (Node.events on));
  Alcotest.(check bool) "no quarantine without controls" true (Node.quarantine off = None);
  Alcotest.(check bool) "no event ring without controls" true (Node.events off = None);
  Alcotest.(check (list string)) "nothing quarantined" [] (Node.health off).Node.quarantined

let test_quarantine_recovery () =
  (* §3.2: penalized sites must be able to recover. A terminated site
     is refused (503 + Retry-After) only for its quarantine window;
     when the window lapses on the simulated clock it serves again, and
     a repeat offense earns a doubled window. *)
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  let req () = Message.request "http://www.example.edu/index.html" in
  Alcotest.(check int) "clean site serves" 200
    (fetch_sync cluster ~client ~proxy (req ())).Message.status;
  (* First offense: the Fig. 6 monitor would call this on termination. *)
  let quarantine =
    match Node.quarantine proxy with
    | Some q -> q
    | None -> Alcotest.fail "the default config runs resource controls"
  in
  let w1 = Core.Resource.Quarantine.punish quarantine ~site:"www.example.edu" in
  Alcotest.(check (float 1e-9)) "base window" 30.0 w1;
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check int) "refused while banned" 503 resp.Message.status;
  (match Message.resp_header resp "Retry-After" with
   | Some s ->
     Alcotest.(check bool)
       (Printf.sprintf "Retry-After %s covers the ban" s)
       true
       (match int_of_string_opt s with Some n -> n >= 1 && n <= 31 | None -> false)
   | None -> Alcotest.fail "ban response must carry Retry-After");
  (* The ban lapses: the site recovers. *)
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now sim +. 31.0) sim;
  Alcotest.(check int) "serves again after the window" 200
    (fetch_sync cluster ~client ~proxy (req ())).Message.status;
  (* Repeat offense: escalated window — still banned after the base
     window, recovered after the doubled one. *)
  let w2 = Core.Resource.Quarantine.punish quarantine ~site:"www.example.edu" in
  Alcotest.(check (float 1e-9)) "doubled window" 60.0 w2;
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now sim +. 31.0) sim;
  Alcotest.(check int) "still banned past the base window" 503
    (fetch_sync cluster ~client ~proxy (req ())).Message.status;
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now sim +. 30.0) sim;
  Alcotest.(check int) "recovers from the escalated ban too" 200
    (fetch_sync cluster ~client ~proxy (req ())).Message.status

let test_hard_state_replicates_between_proxies () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.spec99.org" () in
  Core.Workload.Specweb.install_origin origin;
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  (* Warm proxy B so it joins the replication group (a node serving a
     site subscribes to that site's updates). *)
  ignore
    (fetch_sync cluster ~client ~proxy:b
       (Message.request "http://www.spec99.org/nkp/profile.nkp?user=nobody"));
  (* Register through proxy A. *)
  let r1 =
    fetch_sync cluster ~client ~proxy:a
      (Message.request "http://www.spec99.org/nkp/register.nkp?user=alice&profile=prof1")
  in
  Alcotest.(check bool) "registered" true
    (Core.Util.Strutil.contains_sub (body r1) ~sub:"registered");
  (* Look up through proxy B after the update propagates. *)
  let r2 =
    fetch_sync cluster ~client ~proxy:b
      (Message.request "http://www.spec99.org/nkp/profile.nkp?user=alice")
  in
  Alcotest.(check bool) "profile visible on other node" true
    (Core.Util.Strutil.contains_sub (body r2) ~sub:"prof1")

let test_access_log_posted () =
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let received = ref [] in
  Origin.set_dynamic origin ~prefix:"/log-sink" ~cpu:0.0001 (fun req ->
      received := Body.to_string req.Message.body :: !received;
      Message.response ~body:"ok" ());
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
Log.enable("http://www.example.edu/log-sink");
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() { };
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  ignore (fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/index.html"));
  (* Give the 30-second log poster a chance to run. *)
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now (Cluster.sim cluster) +. 35.0) (Cluster.sim cluster);
  Cluster.run cluster;
  Alcotest.(check bool) "log delivered" true (!received <> []);
  Alcotest.(check bool) "entry mentions the url" true
    (List.exists
       (fun entry -> Core.Util.Strutil.contains_sub entry ~sub:"/index.html")
       !received)

let test_redirector_integration () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let near = Cluster.add_proxy cluster ~name:"near.nakika.net" () in
  let far = Cluster.add_proxy cluster ~name:"far.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  Cluster.connect cluster client (Node.host near) ~latency:0.002 ~bandwidth:1e7;
  Cluster.connect cluster client (Node.host far) ~latency:0.3 ~bandwidth:1e7;
  (* No explicit proxy: the redirector picks. *)
  let resp = fetch_sync cluster ~client (Message.request "http://www.example.edu/index.html") in
  Alcotest.(check int) "served" 200 resp.Message.status;
  Alcotest.(check bool) "near proxy took the request" true
    (Core.Telemetry.Metrics.counter (Node.metrics near) "requests" > 0);
  Alcotest.(check int) "far proxy idle" 0 (Core.Telemetry.Metrics.counter (Node.metrics far) "requests")


let test_revalidation_304 () =
  (* An expired cache entry with an ETag turns the refetch into a
     conditional GET; the origin's 304 revives the entry without moving
     the body again. *)
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/page.html" ~max_age:10 "stable content";
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/page.html" in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  let bytes_before = Origin.bytes_served origin in
  (* Expire the entry, then fetch again: expect a 304 revalidation. *)
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now (Cluster.sim cluster) +. 11.0) (Cluster.sim cluster);
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check string) "content served from revived entry" "stable content" (body resp);
  Alcotest.(check bool) "revalidation recorded" true
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "revalidations" > 0);
  (* The 304 carried no body: almost no new bytes from the origin. *)
  Alcotest.(check bool) "no full body transfer" true
    (Origin.bytes_served origin - bytes_before < String.length "stable content");
  (* And the revived entry serves fresh hits again. *)
  let hits_before = Core.Cache.Http_cache.hits (Node.cache proxy) in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  Alcotest.(check bool) "fresh again" true
    (Core.Cache.Http_cache.hits (Node.cache proxy) > hits_before)

let test_revalidation_changed_content () =
  (* When the content changed, the conditional GET returns the new 200
     and the cache is replaced. *)
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/page.html" ~max_age:10 "version 1";
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/page.html" in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now (Cluster.sim cluster) +. 11.0) (Cluster.sim cluster);
  Origin.set_static origin ~path:"/page.html" ~max_age:10 "version 2";
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check string) "new content" "version 2" (body resp);
  Alcotest.(check int) "no 304 this time" 0
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "revalidations")


let test_integrity_catches_misbehaving_peer () =
  (* §6 end to end: the origin signs its content; node B is misbehaving
     and falsifies what it serves to peers; node A verifies, rejects
     the falsified copy, and falls back to the origin. *)
  let key = "publisher-key" in
  let verify_config = { Config.default with Config.integrity_key = Some key } in
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" ~sign_key:key () in
  Origin.set_static origin ~path:"/study.html" ~max_age:300 "<html>study content</html>";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    "var p = new Policy(); p.onResponse = function() { }; p.register();";
  let bad = Cluster.add_proxy cluster ~name:"nk-bad.nakika.net" () in
  let good = Cluster.add_proxy cluster ~name:"nk-good.nakika.net" ~config:verify_config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/study.html" in
  ignore (fetch_sync cluster ~client ~proxy:bad (req ()));
  (* The §6 threat: B modifies its cached copy, keeping the publisher's
     integrity headers, and serves it to its peers. *)
  let cache = Node.cache bad in
  let cache_key = "GET http://www.example.edu/study.html" in
  let now = Core.Sim.Sim.now (Cluster.sim cluster) in
  (match Core.Cache.Http_cache.lookup cache ~now ~key:cache_key with
   | None -> Alcotest.fail "the misbehaving node did not cache the page"
   | Some copy ->
     Message.set_body copy "<html>study FALSIFIED</html>";
     Core.Cache.Http_cache.insert cache ~now ~key:cache_key
       ~expiry:(Message.response_expiry ~now copy) copy);
  (* The good node finds bad's announcement, gets a falsified copy,
     detects it, and retrieves the authoritative version. *)
  let resp = fetch_sync cluster ~client ~proxy:good (req ()) in
  Alcotest.(check string) "authoritative content served" "<html>study content</html>"
    (body resp);
  Alcotest.(check bool) "violation detected" true
    (Core.Telemetry.Metrics.counter (Node.metrics good) "integrity-violations" > 0)

let test_integrity_accepts_honest_peer () =
  let key = "publisher-key" in
  let config = { Config.default with Config.integrity_key = Some key } in
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" ~sign_key:key () in
  Origin.set_static origin ~path:"/study.html" ~max_age:300 "<html>study content</html>";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    "var p = new Policy(); p.onResponse = function() { }; p.register();";
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" ~config () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/study.html" in
  ignore (fetch_sync cluster ~client ~proxy:a (req ()));
  let origin_before = Origin.request_count origin in
  let resp = fetch_sync cluster ~client ~proxy:b (req ()) in
  Alcotest.(check string) "content" "<html>study content</html>" (body resp);
  Alcotest.(check int) "peer copy accepted, origin idle" origin_before
    (Origin.request_count origin);
  Alcotest.(check int) "no violations" 0
    (Core.Telemetry.Metrics.counter (Node.metrics b) "integrity-violations")


let test_emission_control_on_script_fetches () =
  (* §3.2: the server-side wall mediates hosted scripts' access to web
     resources. A site script that tries to fetch a blocked resource
     gets the wall's denial, and the blocked origin is never contacted. *)
  let server_wall =
    Wall_scripts.deny_urls_wall ~urls:[ "internal.example.org" ] ~status:403
  in
  let cluster = Cluster.create ~server_wall () in
  let blocked = Cluster.add_origin cluster ~name:"internal.example.org" () in
  Origin.set_static blocked ~path:"/secret" ~max_age:300 "secret data";
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/page.html" ~max_age:300 "page";
  Origin.set_static origin ~path:"/fragment" ~max_age:300 "public fragment";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["www.example.edu/page.html"];
p.onRequest = function() {
  var secret = fetchResource("http://internal.example.org/secret");
  var public_ = fetchResource("http://www.example.edu/fragment");
  Request.respond(200, "text/plain", "secret=" + secret.status + " public=" + public_.status);
}
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp = fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/page.html") in
  Alcotest.(check string) "wall denied the internal fetch only" "secret=403 public=200"
    (body resp);
  Alcotest.(check int) "blocked origin untouched" 0 (Origin.request_count blocked);
  Alcotest.(check bool) "denial recorded" true
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "emission-denials" > 0)


let test_dht_reannouncement_outlives_ttl () =
  (* The announcement's TTL (dht_ttl) is shorter than a long-lived cache
     entry; the re-announcement daemon keeps the content findable. *)
  let config = { Config.default with Config.dht_ttl = 30.0 } in
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/longlived.html" ~max_age:3600 "<html>durable content</html>";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:3600
    "var p = new Policy(); p.onResponse = function() { }; p.register();";
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" ~config () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" ~config () in
  ignore a;
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/longlived.html" in
  ignore (fetch_sync cluster ~client ~proxy:a (req ()));
  (* Let several announcement TTLs pass. *)
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now (Cluster.sim cluster) +. 100.0) (Cluster.sim cluster);
  let origin_before = Origin.request_count origin in
  ignore (fetch_sync cluster ~client ~proxy:b (req ()));
  Alcotest.(check bool) "peer copy still found" true
    (Core.Telemetry.Metrics.counter (Node.metrics b) "peer-fetches" > 0);
  Alcotest.(check int) "origin idle" origin_before (Origin.request_count origin)


let test_range_served_from_full_instance () =
  (* A Range request is processed on the full instance: the site script
     sees and transforms the whole body; the client gets the slice of
     the transformed content as a 206. *)
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/doc.txt" ~content_type:"text/plain" ~max_age:300
    "aaaaaaaaaabbbbbbbbbb";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  var b = "", c;
  while ((c = Response.read()) != null) { b += c; }
  Response.write(b.toUpperCase());
}
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let resp =
    fetch_sync cluster ~client ~proxy
      (Message.request ~headers:[ ("Range", "bytes=8-11") ] "http://www.example.edu/doc.txt")
  in
  Alcotest.(check int) "206" 206 resp.Message.status;
  Alcotest.(check string) "slice of the transformed instance" "AABB" (body resp);
  Alcotest.(check (option string)) "content-range" (Some "bytes 8-11/20")
    (Message.resp_header resp "Content-Range");
  (* An ordinary request still gets the whole instance. *)
  let full = fetch_sync cluster ~client ~proxy (Message.request "http://www.example.edu/doc.txt") in
  Alcotest.(check int) "200" 200 full.Message.status;
  Alcotest.(check string) "full body" "AAAAAAAAAABBBBBBBBBB" (body full)


let test_concurrent_pipelines_do_not_interleave () =
  (* Two in-flight requests whose handlers suspend on a sub-fetch must
     not clobber each other's Request/Response globals in the shared
     stage context (the stage lock serializes them, §4's per-pipeline
     isolation). *)
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/a.html" ~max_age:0 "page-a";
  Origin.set_static origin ~path:"/b.html" ~max_age:0 "page-b";
  Origin.set_static origin ~path:"/frag" ~max_age:0 "x";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["www.example.edu"];
p.onResponse = function() {
  if (Request.url.indexOf("frag") >= 0) { return; }
  var before = Request.url;
  var body = "", c;
  while ((c = Response.read()) != null) { body += c; }
  // Suspend mid-handler: another pipeline would love to sneak in here.
  fetchResource("http://www.example.edu/frag");
  var after = Request.url;
  Response.write(body + "|" + (before == after ? "stable" : "CLOBBERED"));
}
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let results = ref [] in
  (* Issue both before running the simulator: truly concurrent. *)
  Cluster.fetch cluster ~client ~proxy (Message.request "http://www.example.edu/a.html")
    (fun r -> results := ("a", body r) :: !results);
  Cluster.fetch cluster ~client ~proxy (Message.request "http://www.example.edu/b.html")
    (fun r -> results := ("b", body r) :: !results);
  Cluster.run cluster;
  let sorted = List.sort compare !results in
  Alcotest.(check (list (pair string string))) "both transformed with their own state"
    [ ("a", "page-a|stable"); ("b", "page-b|stable") ]
    sorted


let test_simulation_is_deterministic () =
  (* Two runs of the same seeded deployment produce identical traces —
     the property every experiment in bench/ relies on. *)
  let run () =
    let cluster = Cluster.create ~seed:77 () in
    let origin = Cluster.add_origin cluster ~name:Core.Workload.Simm.host () in
    Core.Workload.Simm.install_origin origin;
    let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
    let client = Cluster.add_client cluster ~name:"c1" in
    let sim = Cluster.sim cluster in
    let rng = Core.Util.Prng.create 5 in
    let latencies = ref [] in
    Core.Workload.Driver.closed_loop cluster ~client ~proxy ~think:0.1
      ~until:(Core.Sim.Sim.now sim +. 10.0)
      ~make_request:(fun _ ->
        Core.Workload.Simm.make_request ~rng ~mode:Core.Workload.Simm.Edge ~student:"s")
      ~on_response:(fun _ _ resp elapsed ->
        latencies := (resp.Core.Http.Message.status, elapsed) :: !latencies)
      ();
    Cluster.run cluster;
    ( !latencies,
      Core.Telemetry.Metrics.counter (Node.metrics proxy) "requests",
      Origin.request_count origin )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b);
  let _, requests, _ = a in
  Alcotest.(check bool) "did real work" true (requests > 20)

(* --- stale-if-error degradation (RFC 2616 stale serving) ------------- *)

(* Fault plans use absolute times and must be built before the
   cluster exists, so they count from the simulator's default start. *)
let sim_epoch = Core.Sim.Sim.epoch

(* A cluster whose one origin fails from [fail_at] on. The page is
   cached with max_age 10; the node serves it stale for up to 900 s
   past expiry. *)
let stale_fixture ~fail_at =
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.fail_origin plan ~host:"www.example.edu" ~at:(sim_epoch +. fail_at)
    ~until:(sim_epoch +. 10_000.0);
  let cluster = Cluster.create ~faults:plan () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  Origin.set_static origin ~path:"/page.html" ~max_age:10 "cached-copy";
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/page.html" in
  ignore (fetch_sync cluster ~client ~proxy (req ()));
  (cluster, proxy, client, req)

let advance cluster until =
  let sim = Cluster.sim cluster in
  Core.Sim.Sim.run ~until:(sim_epoch +. until) sim

let test_stale_served_on_origin_failure () =
  let cluster, proxy, client, req = stale_fixture ~fail_at:5.0 in
  advance cluster 30.0;
  (* Entry expired at ~epoch+10, origin now failing: degraded serving. *)
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check int) "still 200" 200 resp.Message.status;
  Alcotest.(check string) "stale body" "cached-copy" (body resp);
  (match Message.resp_header resp "X-NaKika-Stale" with
   | None -> Alcotest.fail "X-NaKika-Stale missing"
   | Some age ->
     Alcotest.(check bool) ("staleness plausible: " ^ age) true
       (match int_of_string_opt age with Some a -> a >= 10 && a <= 40 | None -> false));
  Alcotest.(check bool) "stale_served counted" true
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "cache.stale_served" > 0)

let test_fresh_preferred_over_stale () =
  (* While the copy is still fresh the failure is invisible: served from
     cache, no stale marker. *)
  let cluster, proxy, client, req = stale_fixture ~fail_at:2.0 in
  advance cluster 5.0;
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check int) "fresh 200" 200 resp.Message.status;
  Alcotest.(check (option string)) "no stale marker" None
    (Message.resp_header resp "X-NaKika-Stale");
  Alcotest.(check int) "nothing served stale" 0
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "cache.stale_served")

let test_stale_cap_exceeded_fails_hard () =
  (* Staleness cap 900 s: at ~990 s past expiry the copy is too old and
     the origin's error surfaces. *)
  let cluster, proxy, client, req = stale_fixture ~fail_at:5.0 in
  advance cluster 1000.0;
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check bool) ("hard failure: " ^ string_of_int resp.Message.status) true
    (resp.Message.status >= 500);
  Alcotest.(check (option string)) "no stale marker" None
    (Message.resp_header resp "X-NaKika-Stale");
  Alcotest.(check int) "nothing served stale" 0
    (Core.Telemetry.Metrics.counter (Node.metrics proxy) "cache.stale_served")

let test_stale_within_cap_then_beyond () =
  (* The same deployment first degrades gracefully (inside the cap),
     then fails hard once the copy ages past it. *)
  let cluster, proxy, client, req = stale_fixture ~fail_at:5.0 in
  advance cluster 900.0;
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check int) "within cap: degraded 200" 200 resp.Message.status;
  Alcotest.(check bool) "marked stale" true
    (Message.resp_header resp "X-NaKika-Stale" <> None);
  advance cluster 1000.0;
  let resp = fetch_sync cluster ~client ~proxy (req ()) in
  Alcotest.(check bool) "beyond cap: hard failure" true (resp.Message.status >= 500)

(* Node construction rejects invalid configs with the same checker the
   provisioning compiler runs ([Config.validate]); one regression test
   per rejection class. *)
let expect_rejected label config needle =
  let cluster = Cluster.create () in
  match Cluster.add_proxy cluster ~name:"nk-bad.nakika.net" ~config () with
  | _ -> Alcotest.fail (label ^ ": invalid config accepted")
  | exception Invalid_argument msg ->
    let contains =
      let n = String.length needle and len = String.length msg in
      let rec scan i = i + n <= len && (String.sub msg i n = needle || scan (i + 1)) in
      scan 0
    in
    if not contains then
      Alcotest.fail (Printf.sprintf "%s: rejection message %S lacks %S" label msg needle)

module Admission = Core.Resource.Admission
module Quarantine = Core.Resource.Quarantine
module Policy = Core.Diffusion.Policy

let admission a = { Config.default with Config.admission = Some a }

let diffusion d = { Config.default with Config.diffusion = Some d }

let test_config_rejects_inverted_waters () =
  expect_rejected "inverted waters"
    (diffusion { Policy.default with low_water = 0.9; high_water = 0.8 })
    "diffusion_low_water";
  expect_rejected "equal waters"
    (diffusion { Policy.default with low_water = 0.8; high_water = 0.8 })
    "diffusion_low_water"

let test_config_rejects_bad_capacity () =
  expect_rejected "zero capacity" (admission { Admission.default with capacity = 0 })
    "admission_capacity";
  expect_rejected "negative capacity" (admission { Admission.default with capacity = -4 })
    "admission_capacity"

let test_config_rejects_negative_timeouts () =
  expect_rejected "negative offload timeout"
    (diffusion { Policy.default with offload_timeout = -1.0 })
    "diffusion_offload_timeout";
  expect_rejected "zero fetch timeout"
    (diffusion { Policy.default with fetch_timeout = 0.0 })
    "diffusion_fetch_timeout";
  expect_rejected "negative request deadline"
    { Config.default with Config.request_deadline = -1.0 }
    "request_deadline"

let test_config_rejects_penalty_above_quarantine_max () =
  expect_rejected "penalty above cap"
    {
      Config.default with
      Config.quarantine = { Quarantine.default with base = 600.0; max_window = 240.0 };
    }
    "termination_penalty"

let test_config_rejects_bad_site_tables () =
  expect_rejected "oversubscribed shares"
    (admission { Admission.default with shares = [ ("a.example", 0.7); ("b.example", 0.6) ] })
    "site_shares";
  expect_rejected "inverted site quarantine"
    {
      Config.default with
      Config.quarantine =
        { Quarantine.default with site_params = [ ("a.example", 600.0, 300.0) ] };
    }
    "site_quarantine";
  expect_rejected "non-positive site fuel"
    { Config.default with Config.site_fuel = [ ("a.example", 0) ] }
    "site_fuel"

let test_valid_config_still_accepted () =
  (* The validator must not reject the documented sentinel values. *)
  let cluster = Cluster.create () in
  let config =
    {
      Config.default with
      Config.request_deadline = 0.0;
      retry_budget_ratio = 0.0;
      quarantine = { Quarantine.default with decay = 0.0 };
    }
  in
  ignore (Cluster.add_proxy cluster ~name:"nk-ok.nakika.net" ~config ())

(* --- tail tolerance: deadlines, hedging, the client timeout ---------- *)

let epoch = Core.Sim.Sim.epoch

let test_client_timeout_reason_headers () =
  (* A crashed proxy swallows the request; the cluster's client-side
     timeout must synthesize a 504 that says so machine-readably, like
     every other synthesized failure in the stack. *)
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.crash plan ~host:"nk1.nakika.net" ~at:epoch ();
  let cluster = Cluster.create ~faults:plan () in
  ignore (basic_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let result = ref None in
  Cluster.fetch cluster ~client ~proxy ~timeout:2.0
    (Message.request "http://www.example.edu/index.html")
    (fun r -> result := Some r);
  (* The timeout timer is a daemon event: drive the clock past it. *)
  Core.Sim.Sim.run ~until:(epoch +. 10.0) (Cluster.sim cluster);
  match !result with
  | None -> Alcotest.fail "client timeout never fired"
  | Some r ->
    Alcotest.(check int) "synthesized 504" 504 r.Message.status;
    Alcotest.(check (option string)) "machine-readable reason" (Some "client-timeout")
      (Message.resp_header r "X-NaKika-Timeout");
    Alcotest.(check (option string)) "retry-after hint" (Some "2")
      (Message.resp_header r "Retry-After")

let test_deadline_zero_budget_admission () =
  (* A request arriving with its budget already spent is refused at the
     front door — before any origin, peer, or pipeline work. *)
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req = Message.request "http://www.example.edu/index.html" in
  Message.set_req_header req Core.Resource.Deadline.header "0";
  let resp = fetch_sync cluster ~client ~proxy req in
  Alcotest.(check int) "504 at admission" 504 resp.Message.status;
  Alcotest.(check (option string)) "shedding point" (Some "deadline-admission")
    (Message.resp_header resp "X-NaKika-Timeout");
  Alcotest.(check int) "counted at admission" 1
    (Core.Telemetry.Metrics.counter (Node.metrics proxy)
       ~labels:[ ("at", "admission") ]
       "deadline.expired");
  Alcotest.(check int) "no origin work was done" 0 (Origin.request_count origin)

let test_deadline_clamps_origin_timeout () =
  (* The origin sits behind a 2 s link; the request's 0.5 s budget must
     clamp the origin hop to the remaining budget instead of waiting
     out the full [origin_timeout] (10 s) or the 4 s round trip. *)
  let cluster = Cluster.create () in
  let origin = basic_site cluster in
  let config =
    { Config.default with Config.request_deadline = 0.5; enable_pipeline = false }
  in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  Cluster.connect cluster (Node.host proxy) (Origin.host origin) ~latency:2.0
    ~bandwidth:12_500_000.0;
  let sim = Cluster.sim cluster in
  let t0 = Core.Sim.Sim.now sim in
  let answered_at = ref Float.nan in
  let result = ref None in
  Cluster.fetch cluster ~client ~proxy
    (Message.request "http://www.example.edu/index.html")
    (fun r ->
      answered_at := Core.Sim.Sim.now sim;
      result := Some r);
  Cluster.run cluster;
  (match !result with
   | None -> Alcotest.fail "no response"
   | Some r -> Alcotest.(check int) "degraded, not hung" 504 r.Message.status);
  Alcotest.(check bool) "failed at the budget, not the hop timeout" true
    (!answered_at -. t0 < 1.0)

let test_hedged_fetch_beats_crashed_holder () =
  (* Chaos arm for the hedged path: the newest announced holder (the
     primary candidate) has crashed. The primary peer fetch hangs; the
     hedge fires after the cold-start delay (peer_timeout / 4) into the
     next live replica, whose copy wins the race — the crashed arm's
     silence is absorbed by the incarnation-guarded net layer, and the
     client is served well before the primary's timeout. *)
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.crash plan ~host:"nk-b.nakika.net" ~at:(epoch +. 5.0) ();
  let cluster = Cluster.create ~faults:plan () in
  ignore (basic_site cluster);
  let config = { Config.default with Config.enable_hedging = true } in
  let a = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" ~config () in
  let b = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" ~config () in
  let c = Cluster.add_proxy cluster ~name:"nk-c.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let req () = Message.request "http://www.example.edu/index.html" in
  (* Warm both holders while everyone is up; nk-b announces last, so a
     later cooperative lookup tries it first. *)
  ignore (fetch_sync cluster ~client ~proxy:a (req ()));
  ignore (fetch_sync cluster ~client ~proxy:b (req ()));
  let sim = Cluster.sim cluster in
  Core.Sim.Sim.run ~until:(epoch +. 6.0) sim;
  let t0 = Core.Sim.Sim.now sim in
  let answered_at = ref Float.nan in
  let result = ref None in
  Cluster.fetch cluster ~client ~proxy:c (req ()) (fun r ->
      answered_at := Core.Sim.Sim.now sim;
      result := Some r);
  (* The hedge-delay timer is a daemon event: drive the clock. *)
  Core.Sim.Sim.run ~until:(epoch +. 20.0) (Cluster.sim cluster);
  (match !result with
   | None -> Alcotest.fail "hedged fetch lost"
   | Some r ->
     Alcotest.(check int) "served" 200 r.Message.status;
     Alcotest.(check string) "peer copy" "<html>hello</html>" (body r));
  let m = Node.metrics c in
  Alcotest.(check bool) "hedge issued" true
    (Core.Telemetry.Metrics.counter m "hedge.issued" >= 1);
  Alcotest.(check bool) "backup won the race" true
    (Core.Telemetry.Metrics.counter m "hedge.wins" >= 1);
  Alcotest.(check bool) "answered before the primary's timeout" true
    (!answered_at -. t0 < 3.0)

let test_dht_sweeper_expires_idle_placements () =
  (* Regression for the sweeper daemon: sloppy placements on a key the
     crowd has abandoned must vanish without any further lookup
     touching it — [Dht.get] expires only what it reads; idle keys are
     the periodic sweep's job. *)
  let config =
    {
      Config.default with
      Config.enable_hotspots = true;
      hotspot_threshold = 2.0;
      hotspot_replicas = 2;
      hotspot_ttl = 5.0;
      hotspot_halflife = 5.0;
    }
  in
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  ignore (Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config ());
  let dht = Cluster.dht cluster in
  let names = List.init 12 (fun i -> Printf.sprintf "edge-%02d" i) in
  List.iter (fun n -> ignore (Core.Overlay.Dht.join dht n)) names;
  let sim = Cluster.sim cluster in
  let t0 = Core.Sim.Sim.now sim in
  let key = "GET http://flash.example/crowd" in
  ignore
    (Core.Overlay.Dht.put dht ~now:t0 ~from:(List.hd names) ~key ~value:"v" ~ttl:3600.0);
  (* A one-second flash crowd (~100 req/s, well past the 2 req/s
     threshold) creates the placements, then moves on for good. *)
  for i = 0 to 119 do
    Core.Sim.Sim.schedule_at sim
      (t0 +. (0.01 *. float_of_int i))
      (fun () ->
        ignore
          (Core.Overlay.Dht.get dht ~now:(Core.Sim.Sim.now sim)
             ~from:(List.nth names (i mod 12))
             ~key))
  done;
  let placed = ref 0 in
  Core.Sim.Sim.schedule_at sim (t0 +. 1.5) (fun () ->
      placed := Core.Overlay.Dht.sloppy_replicas dht);
  (* TTL 5 s, sweep period max(1, ttl/2) = 2.5 s: by +20 s the idle
     placement has long been swept — with no lookup ever touching the
     key again. *)
  Core.Sim.Sim.run ~until:(t0 +. 20.0) (Cluster.sim cluster);
  Alcotest.(check bool) "crowd created placements" true (!placed > 0);
  Alcotest.(check int) "idle placements swept without a lookup" 0
    (Core.Overlay.Dht.sloppy_replicas dht)

let test_config_rejects_bad_tail_knobs () =
  expect_rejected "negative request deadline"
    { Config.default with Config.request_deadline = -1.0 }
    "request_deadline";
  expect_rejected "zero hedge rate" { Config.default with Config.hedge_rate = 0.0 }
    "hedge_rate";
  expect_rejected "hedge rate above one" { Config.default with Config.hedge_rate = 1.5 }
    "hedge_rate";
  expect_rejected "retry budget ratio above one"
    { Config.default with Config.retry_budget_ratio = 1.5 }
    "retry_budget_ratio"

let test_local_clients_pass_local_only_wall () =
  (* Fig. 5: the client wall refuses non-local clients with 401; the
     node's [local_clients] blocks decide what System.isLocal calls
     local. *)
  let cluster =
    Cluster.create ~client_wall:(Wall_scripts.local_only_wall ~urls:[ "www.example.edu" ]) ()
  in
  ignore (basic_site cluster);
  let config = { Config.default with Config.local_clients = [ "10.0.0.0/8" ] } in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let from ip =
    Message.request
      ~client:{ Ip.ip = Ip.of_string_exn ip; hostname = None }
      "http://www.example.edu/index.html"
  in
  Alcotest.(check int) "local client served" 200
    (fetch_sync cluster ~client ~proxy (from "10.1.2.3")).Message.status;
  Alcotest.(check int) "remote client refused" 401
    (fetch_sync cluster ~client ~proxy (from "192.0.2.7")).Message.status

let test_termination_kills_chained_stages () =
  (* The bomb site's own script chains to b.js on the same host, which
     holds the memory bomb. Terminating the site must kill and evict
     both of its stages, not just nakika.js. *)
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"bomb.example.org" () in
  Core.Workload.Flashcrowd.install_bomb_site origin;
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["bomb.example.org"];
p.nextStages = ["http://bomb.example.org/b.js"];
p.register();
|};
  (* The memory bomb [install_bomb_site] serves as nakika.js. *)
  Origin.set_static origin ~path:"/b.js" ~content_type:"text/javascript" ~max_age:300
    {|
var p = new Policy();
p.url = ["bomb.example.org"];
p.onResponse = function() {
  var s = "xxxxxxxxxxxxxxxx";
  while (true) { s = s + s; }
}
p.register();
|};
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  Core.Workload.Driver.closed_loop cluster ~client ~proxy
    ~until:(Core.Sim.Sim.now sim +. 8.0)
    ~make_request:(fun _ -> Core.Workload.Flashcrowd.bomb_request ())
    ~on_response:(fun _ _ _ _ -> ())
    ();
  Cluster.run cluster;
  Alcotest.(check bool) "bomb site terminated" true (terminations proxy "bomb.example.org" > 0);
  (* The site is quarantined for the rest of the run, so nothing loads
     its stages again: only the two administrative walls stay cached. *)
  Alcotest.(check int) "both site stages evicted" 2 (Node.stage_cache_entries proxy)

let test_second_answer_raises () =
  (* At most one answer per request: the guard around every handler
     continuation raises on a second call, from a fresh simulator event
     so that no cothread's error handler can swallow it. *)
  let cluster = Cluster.create () in
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let req = Message.request "http://www.example.edu/index.html" in
  let answers = ref 0 in
  let k = Node.answer_once proxy req (fun _ -> incr answers) in
  k (Message.error_response 503);
  k (Message.error_response 504);
  Alcotest.(check int) "first answer delivered, second dropped" 1 !answers;
  match Cluster.run cluster with
  | () -> Alcotest.fail "a second answer must raise"
  | exception Invalid_argument msg ->
    Alcotest.(check string) "names the node and the URL"
      "Node nk1.nakika.net answered http://www.example.edu/index.html twice" msg

(* A client timeout that an answer beat is settled: the answer takes
   its timer out of the queue, and the latch no longer holds the
   client's callback or what the callback captures. *)
let test_settled_timeout_releases_callback () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let proxy = Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let captured = Weak.create 1 and status = ref 0 in
  let send () =
    let payload = Bytes.make 64 'p' in
    Weak.set captured 0 (Some payload);
    Cluster.fetch cluster ~client ~proxy ~timeout:60.0
      (Message.request "http://www.example.edu/index.html")
      (fun r ->
        ignore (Sys.opaque_identity payload);
        status := r.Message.status)
  in
  send ();
  Cluster.run cluster;
  Alcotest.(check int) "answered" 200 !status;
  Gc.full_major ();
  let collected = not (Weak.check captured 0) in
  (* Read after the collection, so the cluster and its queue were live
     through it. *)
  let sim = Cluster.sim cluster in
  Alcotest.(check bool) "before the timeout, with daemon loops queued" true
    (Core.Sim.Sim.now sim < epoch +. 60.0 && Core.Sim.Sim.pending sim > 0);
  Alcotest.(check bool) "captured value collected" true collected

(* Live heap per idle proxy: what [Cluster.add_proxy] keeps for a node
   that has served nothing. The first proxy pays for the cluster's
   shared state and is left out of the count. An idle proxy holds about
   650 words; the bound, 7 KiB, leaves room for that to grow by a third,
   and fails if either telemetry ring is preallocated again (the event
   ring alone is 1,025 words, the trace ring 257). *)
let idle_proxy_words_bound = 896

let test_idle_proxy_footprint () =
  let cluster = Cluster.create () in
  ignore (Cluster.add_proxy cluster ~name:"nk0.nakika.net" ());
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let proxies =
    List.init 200 (fun i ->
        Cluster.add_proxy cluster ~name:(Printf.sprintf "nk%d.nakika.net" (i + 1)) ())
  in
  let per_node = (live () - before) / 200 in
  ignore (Sys.opaque_identity (cluster, proxies));
  Alcotest.(check bool)
    (Printf.sprintf "%d live words per idle proxy, bound %d" per_node idle_proxy_words_bound)
    true
    (per_node <= idle_proxy_words_bound)

(* A quiet proxy holds nothing for requests it has answered. Each
   origin and peer hop races a timeout, and so does each hedged peer
   fetch's backup; once the answers are in, every such timer has left
   the queue, which holds only daemon loops: those it held before the
   first request, and the anti-entropy loop of the site replica each
   proxy attaches on its first request. A hop's timer held the
   suspended cothread's resume callback, and with it the cothread's
   error path, until it fired. *)
let test_quiet_proxy_footprint () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  let pages = 50 in
  for i = 0 to pages - 1 do
    Origin.set_static origin ~path:(Printf.sprintf "/p%d.html" i) ~max_age:300 "<html>p</html>"
  done;
  let config = { Config.default with Config.enable_hedging = true } in
  let proxies =
    List.init 4 (fun i ->
        Cluster.add_proxy cluster ~name:(Printf.sprintf "nk%d.nakika.net" i) ~config ())
  in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  let daemons = Core.Sim.Sim.pending sim in
  let ok = ref 0 in
  (* The first proxy takes each page from the origin, the second from
     the first, and the last two race the two holders with a hedge. *)
  for i = 0 to pages - 1 do
    List.iter
      (fun proxy ->
        Cluster.fetch cluster ~client ~proxy
          (Message.request (Printf.sprintf "http://www.example.edu/p%d.html" i))
          (fun r -> if r.Message.status = 200 then incr ok);
        Cluster.run cluster)
      proxies
  done;
  Alcotest.(check int) "all answered" (pages * 4) !ok;
  let peer_fetches =
    List.fold_left
      (fun n p -> n + Core.Telemetry.Metrics.counter (Node.metrics p) "peer-fetches")
      0 proxies
  in
  Alcotest.(check bool) "peer path taken" true (peer_fetches >= pages * 3);
  Alcotest.(check int) "only the daemon loops queued"
    (daemons + List.length proxies)
    (Core.Sim.Sim.pending sim);
  (* One origin hop and one peer hop from a cothread of the test's own,
     whose error path captures a value. *)
  let node = List.hd proxies and peer = Node.host (List.nth proxies 1) in
  let captured = Weak.create 2 and answered = ref 0 in
  let[@inline never] hop slot via =
    let payload = Bytes.make 64 'p' in
    Weak.set captured slot (Some payload);
    Core.Util.Cothread.spawn
      (fun () ->
        Node.await_fetch_opt node ~via ~timeout:10.0
          (Message.request "http://www.example.edu/p0.html"))
      ~on_done:(fun r -> if r <> None then incr answered)
      ~on_error:(fun _ -> ignore (Sys.opaque_identity payload))
  in
  hop 0 None;
  hop 1 (Some peer);
  Cluster.run cluster;
  Alcotest.(check int) "both hops answered" 2 !answered;
  Gc.full_major ();
  let held = Weak.check captured 0 || Weak.check captured 1 in
  (* Read after the collection, so the cluster and its queue were live
     through it. *)
  Alcotest.(check int) "hop timers gone" (daemons + List.length proxies)
    (Core.Sim.Sim.pending sim);
  Alcotest.(check bool) "settled hop callbacks collected" false held

(* What a proxy's metrics registry holds after serving: 200 requests
   for 50 pages through four proxies, each page taken from the origin
   by the first proxy and from a peer by the others. A registry keeps
   one array slot per declared metric and a table per labelled family
   it wrote. A string-keyed registry, with a hashed (name, labels) key
   per instrument and a bucket table per histogram, held 526-538 words
   per proxy here; this one holds 350-352, and the bound leaves it a
   fifth of headroom. *)
let registry_words_bound = 420

let test_registry_footprint () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  let pages = 50 in
  for i = 0 to pages - 1 do
    Origin.set_static origin ~path:(Printf.sprintf "/p%d.html" i) ~max_age:300 "<html>p</html>"
  done;
  let proxies =
    Array.init 4 (fun i -> Cluster.add_proxy cluster ~name:(Printf.sprintf "nk%d.nakika.net" i) ())
  in
  let client = Cluster.add_client cluster ~name:"c1" in
  let ok = ref 0 in
  for i = 0 to 199 do
    Cluster.fetch cluster ~client ~proxy:proxies.(i mod 4)
      (Message.request (Printf.sprintf "http://www.example.edu/p%d.html" (i / 4 mod pages)))
      (fun r -> if r.Message.status = 200 then incr ok);
    Cluster.run cluster
  done;
  Alcotest.(check int) "all answered" 200 !ok;
  Array.iter
    (fun p ->
      let words = Obj.reachable_words (Obj.repr (Node.metrics p)) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d registry words, bound %d" (Node.name p) words registry_words_bound)
        true
        (words <= registry_words_bound))
    proxies

(* A proxy announces on the DHT only what its cache kept: an edge too
   small for the page serves it but does not tell peers it holds it. *)
let test_refused_insert_not_announced () =
  let cluster = Cluster.create () in
  ignore (basic_site cluster);
  let tiny = { Config.default with Config.cache_bytes = 1 } in
  let edge = Cluster.add_proxy cluster ~name:"nk-edge.nakika.net" ~config:tiny () in
  let full = Cluster.add_proxy cluster ~name:"nk-full.nakika.net" () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let puts () =
    Core.Telemetry.Metrics.counter (Core.Overlay.Dht.metrics (Cluster.dht cluster)) "dht.puts"
  in
  let req () = Message.request "http://www.example.edu/index.html" in
  let before = puts () in
  Alcotest.(check int) "served" 200 (fetch_sync cluster ~client ~proxy:edge (req ())).Message.status;
  Alcotest.(check int) "refused copy not announced" before (puts ());
  ignore (fetch_sync cluster ~client ~proxy:full (req ()));
  Alcotest.(check bool) "kept copies announced" true (puts () > before)

(* A proxy's health plane is one loop: each second it sets its gauges
   and writes one load report into the redirector's table, which the
   redirector and diffusion both read. Over [seconds] simulated seconds
   an idle cluster therefore executes exactly one event per proxy per
   second; plain proxies run no other loop this short (the log poster's
   period is 30 s), with diffusion on or off. *)
let test_one_health_tick_per_proxy () =
  let cluster = Cluster.create () in
  let diffusion =
    { Config.plain_proxy with Config.diffusion = Some Core.Diffusion.Policy.default }
  in
  let proxies =
    List.init 4 (fun i ->
        let config = if i mod 2 = 0 then Config.plain_proxy else diffusion in
        Cluster.add_proxy cluster ~name:(Printf.sprintf "nk%d.nakika.net" i) ~config ())
  in
  let sim = Cluster.sim cluster in
  let t0 = Core.Sim.Sim.now sim in
  let seconds = 20 in
  Core.Sim.Sim.run ~until:(t0 +. 0.5) sim;
  let before = Core.Sim.Sim.executed sim in
  Core.Sim.Sim.run ~until:(t0 +. 0.5 +. float_of_int seconds) sim;
  Alcotest.(check int) "one health event per proxy per second"
    (List.length proxies * seconds)
    (Core.Sim.Sim.executed sim - before);
  List.iter
    (fun p ->
      match Core.Overlay.Redirector.health (Cluster.redirector cluster) (Node.host p) with
      | None -> Alcotest.fail (Node.name p ^ " never reported")
      | Some h ->
        Alcotest.(check (float 0.0)) "reported on the last tick" (t0 +. float_of_int seconds)
          h.Core.Overlay.Redirector.reported_at;
        Alcotest.(check bool) "pressure carried only with diffusion on"
          (Option.is_some (Node.config p).Config.diffusion)
          (Option.is_some h.Core.Overlay.Redirector.pressure))
    proxies

(* The sweeper of expired sloppy placements runs once per cluster, not
   once per hotspot-enabled proxy: all of them share one DHT index, and
   every sweep after the first finds nothing left to expire. With a
   60 s placement TTL the sweep period is 30 s, so over 61 idle seconds
   four hotspot-enabled proxies cost exactly two more events than four
   without hotspots. *)
let test_one_dht_sweeper_per_cluster () =
  let executed ~hotspots =
    let cluster = Cluster.create () in
    let config =
      { Config.default with Config.enable_hotspots = hotspots; hotspot_ttl = 60.0 }
    in
    for i = 0 to 3 do
      ignore (Cluster.add_proxy cluster ~name:(Printf.sprintf "nk%d.nakika.net" i) ~config ())
    done;
    let sim = Cluster.sim cluster in
    Core.Sim.Sim.run ~until:(Core.Sim.Sim.now sim +. 61.0) sim;
    Core.Sim.Sim.executed sim
  in
  Alcotest.(check int) "one sweeper's two firings" 2
    (executed ~hotspots:true - executed ~hotspots:false)

(* An untraced request formats no span attribute. The two readings are
   of hedged requests through an edge and one peer that differ only in
   the deadline budget they carry, 5 s or 500 s. The budget reaches
   text in two places: the X-NaKika-Deadline header stamped on the peer
   hop ("%.6f": 8 or 10 characters, two words of string either way) and
   the request span's deadline_remaining attribute ("%.4f": 6 or 8
   characters, one word or two). So the two allocate alike unless the
   attribute's text is built without a span to hold it. Each reading is
   the least of several requests, so a table that grows inside one
   request or a daemon tick that lands in it does not count. *)
let test_untraced_request_builds_no_span_text () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" () in
  let pages = 24 in
  for i = 0 to pages - 1 do
    Origin.set_static origin ~path:(Printf.sprintf "/p%02d.html" i) ~max_age:300 "<html>p</html>"
  done;
  let config =
    { Config.default with Config.enable_tracing = false; enable_hedging = true }
  in
  let edge = Cluster.add_proxy cluster ~name:"nk-a.nakika.net" ~config () in
  let peer = Cluster.add_proxy cluster ~name:"nk-b.nakika.net" ~config () in
  let client = Cluster.add_client cluster ~name:"c1" in
  let request i = Message.request (Printf.sprintf "http://www.example.edu/p%02d.html" i) in
  (* The peer takes every page from the origin and announces it. *)
  for i = 0 to pages - 1 do
    ignore (fetch_sync cluster ~client ~proxy:peer (request i))
  done;
  let least = [| infinity; infinity |] in
  for i = 0 to pages - 1 do
    let req = request i and budget = i mod 2 in
    Message.set_req_header req "X-NaKika-Deadline" (if budget = 0 then "5" else "500");
    let resp, allocated =
      Alloc.gc_allocated (fun () -> fetch_sync cluster ~client ~proxy:edge req)
    in
    Alcotest.(check int) "answered" 200 resp.Message.status;
    (* The first requests warm the edge's script cache and metrics. *)
    if i >= 4 then least.(budget) <- Float.min least.(budget) allocated
  done;
  Alcotest.(check bool) "every page came from the peer" true
    (Core.Telemetry.Metrics.counter (Node.metrics edge) "peer-fetches" >= pages);
  Alcotest.(check (float 0.0)) "5 s and 500 s budgets allocate alike" least.(0) least.(1)

let suite =
  [
    Alcotest.test_case "proxying a static page" `Quick test_plain_proxying;
    Alcotest.test_case ".nakika.net URL rewriting" `Quick test_nakika_url_rewriting;
    Alcotest.test_case "cache hits avoid the origin" `Quick test_cache_hit_avoids_origin;
    Alcotest.test_case "expired entries are refetched" `Quick test_cache_expiry_refetches;
    Alcotest.test_case "304 revalidation revives stale entries" `Quick test_revalidation_304;
    Alcotest.test_case "revalidation picks up changed content" `Quick
      test_revalidation_changed_content;
    Alcotest.test_case "DHT cooperative caching" `Quick test_dht_cooperative_caching;
    Alcotest.test_case "DHT re-announcement outlives the soft-state TTL" `Quick
      test_dht_reannouncement_outlives_ttl;
    Alcotest.test_case "DHT disabled goes to origin" `Quick test_dht_disabled_goes_to_origin;
    Alcotest.test_case "site script transforms responses" `Quick test_site_script_pipeline;
    Alcotest.test_case "negative cache for missing nakika.js" `Quick
      test_negative_cache_for_missing_site_script;
    Alcotest.test_case "administrative walls enforced" `Quick test_admin_walls_enforced;
    Alcotest.test_case "policy updates apply on expiry (§3.2)" `Quick
      test_wall_update_via_expiry;
    Alcotest.test_case "plain-proxy config runs no scripts" `Quick
      test_plain_proxy_config_runs_no_scripts;
    Alcotest.test_case "memory bomb terminated under controls" `Quick
      test_memory_bomb_terminated_with_controls;
    Alcotest.test_case "no termination without controls" `Quick
      test_no_termination_without_controls;
    Alcotest.test_case "quarantined sites recover, repeat offenders escalate" `Quick
      test_quarantine_recovery;
    Alcotest.test_case "hard state replicates across proxies" `Quick
      test_hard_state_replicates_between_proxies;
    Alcotest.test_case "access logs posted to the site" `Quick test_access_log_posted;
    Alcotest.test_case "redirector sends clients to the near proxy" `Quick
      test_redirector_integration;
    Alcotest.test_case "integrity: misbehaving peer detected (§6)" `Quick
      test_integrity_catches_misbehaving_peer;
    Alcotest.test_case "integrity: honest peers accepted" `Quick
      test_integrity_accepts_honest_peer;
    Alcotest.test_case "emission control mediates script fetches (§3.2)" `Quick
      test_emission_control_on_script_fetches;
    Alcotest.test_case "range requests sliced from the full instance (§3.1)" `Quick
      test_range_served_from_full_instance;
    Alcotest.test_case "concurrent pipelines are isolated (stage lock)" `Quick
      test_concurrent_pipelines_do_not_interleave;
    Alcotest.test_case "simulation runs are deterministic" `Quick
      test_simulation_is_deterministic;
    Alcotest.test_case "stale-if-error: stale served on origin failure" `Quick
      test_stale_served_on_origin_failure;
    Alcotest.test_case "stale-if-error: fresh copies never marked" `Quick
      test_fresh_preferred_over_stale;
    Alcotest.test_case "stale-if-error: hard failure past the cap" `Quick
      test_stale_cap_exceeded_fails_hard;
    Alcotest.test_case "stale-if-error: degrades then fails as the copy ages" `Quick
      test_stale_within_cap_then_beyond;
    Alcotest.test_case "config validation: inverted diffusion waters" `Quick
      test_config_rejects_inverted_waters;
    Alcotest.test_case "config validation: non-positive admission capacity" `Quick
      test_config_rejects_bad_capacity;
    Alcotest.test_case "config validation: negative timeouts" `Quick
      test_config_rejects_negative_timeouts;
    Alcotest.test_case "config validation: penalty above quarantine max" `Quick
      test_config_rejects_penalty_above_quarantine_max;
    Alcotest.test_case "config validation: bad per-site tables" `Quick
      test_config_rejects_bad_site_tables;
    Alcotest.test_case "config validation: sentinel values stay legal" `Quick
      test_valid_config_still_accepted;
    Alcotest.test_case "client timeout 504 carries reason headers" `Quick
      test_client_timeout_reason_headers;
    Alcotest.test_case "deadline: zero-budget request refused at admission" `Quick
      test_deadline_zero_budget_admission;
    Alcotest.test_case "deadline: budget clamps the origin hop timeout" `Quick
      test_deadline_clamps_origin_timeout;
    Alcotest.test_case "hedging: backup replica beats a crashed holder" `Quick
      test_hedged_fetch_beats_crashed_holder;
    Alcotest.test_case "hotspots: sweeper expires idle placements" `Quick
      test_dht_sweeper_expires_idle_placements;
    Alcotest.test_case "config validation: tail-tolerance knobs" `Quick
      test_config_rejects_bad_tail_knobs;
    Alcotest.test_case "cached stage starts each request clean" `Quick
      test_cached_stage_starts_clean;
    Alcotest.test_case "local_clients pass the Fig. 5 local-only wall" `Quick
      test_local_clients_pass_local_only_wall;
    Alcotest.test_case "termination kills chained stages" `Quick
      test_termination_kills_chained_stages;
    Alcotest.test_case "a second answer raises" `Quick test_second_answer_raises;
    Alcotest.test_case "a settled client timeout releases its callback" `Quick
      test_settled_timeout_releases_callback;
    Alcotest.test_case "idle proxy live-heap bound" `Quick test_idle_proxy_footprint;
    Alcotest.test_case "a quiet proxy queues only its daemon loops" `Quick
      test_quiet_proxy_footprint;
    Alcotest.test_case "a refused cache insert is not announced" `Quick
      test_refused_insert_not_announced;
    Alcotest.test_case "registry footprint after 200 requests" `Quick test_registry_footprint;
    Alcotest.test_case "one health tick per proxy per interval" `Quick
      test_one_health_tick_per_proxy;
    Alcotest.test_case "one DHT sweeper per cluster" `Quick test_one_dht_sweeper_per_cluster;
    Alcotest.test_case "an untraced request builds no span text" `Quick
      test_untraced_request_builds_no_span_text;
    Alcotest.test_case "resource controls do not change an uncongested node's answers" `Quick
      test_controls_invisible_when_uncongested;
  ]
