(* Golden span trees: one seeded cluster walks every traced phase of the
   edge node, and the rendered trees of every retained trace on every
   node must match [expected] byte for byte. A renamed, dropped, moved
   or re-parented span, or an attribute written in another order,
   changes the text.

   The walk reaches: the pipeline and its stage loads (script.compile,
   script.lint, script-fetch), the DHT lookup, the peer chain (a hedged
   peer-fetch whose backup wins, integrity-verify ok and violation, the
   serving side's peer-request), origin revalidation, an offload and
   its offload-request, a banned-site reject and the deadline-admission
   504. *)

open Core.Node
open Core.Http

let fetch_sync cluster ~client ~proxy req =
  let result = ref None in
  Cluster.fetch cluster ~client ~proxy req (fun resp -> result := Some resp);
  Cluster.run cluster;
  match !result with Some r -> r | None -> Alcotest.fail "no response"

let key = "publisher-key"

(* The site script answers /script.html itself, from a fragment it
   fetches through the node (a script-fetch). *)
let site_script =
  {|
var p = new Policy();
p.url = ["www.example.edu/script.html"];
p.onRequest = function() {
  var fragment = fetchResource("http://www.example.edu/fragment");
  Request.respond(200, "text/plain", "fragment=" + fragment.status);
}
p.register();
|}

let span_trees () =
  let cluster = Cluster.create () in
  let origin = Cluster.add_origin cluster ~name:"www.example.edu" ~sign_key:key () in
  Origin.set_static origin ~path:"/index.html" ~max_age:300 "<html>hello</html>";
  Origin.set_static origin ~path:"/study.html" ~max_age:300 "<html>study</html>";
  Origin.set_static origin ~path:"/fragment" ~max_age:300 "fragment";
  Origin.set_static origin ~path:"/page.html" ~max_age:10 "stable";
  Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript" ~max_age:300 site_script;
  let verify = { Config.default with Config.integrity_key = Some key } in
  let diffusion =
    {
      Config.default with
      Config.diffusion =
        Some
          {
            Core.Diffusion.Policy.default with
            low_water = 0.0;
            staleness = 1000.0;
            offload_timeout = 0.3;
          };
    }
  in
  let nk1 = Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config:verify () in
  let nk2 =
    Cluster.add_proxy cluster ~name:"nk2.nakika.net"
      ~config:{ verify with Config.enable_hedging = true }
      ()
  in
  let nk3 = Cluster.add_proxy cluster ~name:"nk3.nakika.net" () in
  let nk4 = Cluster.add_proxy cluster ~name:"nk4.nakika.net" ~config:diffusion () in
  let nk5 = Cluster.add_proxy cluster ~name:"nk5.nakika.net" ~config:diffusion () in
  let proxies = [ nk1; nk2; nk3; nk4; nk5 ] in
  let client = Cluster.add_client cluster ~name:"c1" in
  let sim = Cluster.sim cluster in
  let get ?deadline proxy path =
    let req = Message.request ("http://www.example.edu" ^ path) in
    Option.iter (Message.set_req_header req Core.Resource.Deadline.header) deadline;
    ignore (fetch_sync cluster ~client ~proxy req)
  in
  (* Pipeline: stage load, lint, compile, and the script's own fetch. *)
  get nk1 "/script.html";
  (* nk3 holds /index.html; nk1 takes it from nk3 (integrity ok) and
     announces last, so nk2's lookup tries nk1 first. *)
  get nk3 "/index.html";
  get nk1 "/index.html";
  (* nk2 hedges: its link to nk1 is slow, the backup nk3 wins. *)
  Cluster.connect cluster (Node.host nk2) (Node.host nk1) ~latency:2.0 ~bandwidth:12_500_000.0;
  get nk2 "/index.html";
  (* nk3 serves a falsified copy, keeping the publisher's headers:
     nk1's verification fails and it falls back to the origin. *)
  get nk3 "/study.html";
  (let cache = Node.cache nk3 in
   let now = Core.Sim.Sim.now sim in
   let cache_key = "GET http://www.example.edu/study.html" in
   match Core.Cache.Http_cache.lookup cache ~now ~key:cache_key with
   | None -> Alcotest.fail "nk3 did not cache the study page"
   | Some copy ->
     Message.set_body copy "<html>FALSIFIED</html>";
     Core.Cache.Http_cache.insert cache ~now ~key:cache_key
       ~expiry:(Message.response_expiry ~now copy) copy);
  get nk1 "/study.html";
  (* A request under a deadline budget, through the pipeline and a peer. *)
  get nk3 ~deadline:"5" "/script.html";
  (* Revalidation: the short-lived page expires and comes back as a 304. *)
  get nk1 "/page.html";
  Core.Sim.Sim.run ~until:(Core.Sim.Sim.now sim +. 11.0) sim;
  get nk1 "/page.html";
  (* Offload: nk4 warms the site's stage locally, then ships the next
     request to nk5. *)
  get nk4 "/script.html";
  Core.Overlay.Redirector.report (Cluster.redirector cluster) (Node.host nk5) ~incarnation:0
    ~pressure:(-1.0) ~queue_delay:0.0 ~shed_rate:0.0 ();
  get nk4 "/script.html";
  (* The two one-span rejects. *)
  ignore (Core.Resource.Quarantine.punish (Node.quarantine nk2) ~site:"www.example.edu");
  get nk2 "/index.html";
  get nk1 ~deadline:"0" "/index.html";
  let buf = Buffer.create 4096 in
  List.iter
    (fun proxy ->
      Buffer.add_string buf (Printf.sprintf "== %s\n" (Node.name proxy));
      List.iter
        (fun trace -> Buffer.add_string buf (Core.Telemetry.Tracer.render trace))
        (Core.Telemetry.Tracer.traces (Node.tracer proxy)))
    proxies;
  Buffer.contents buf

let expected =
  {golden|== nk1.nakika.net
trace 1 · started 1136073600.000
   16.22 ms request  url=http://www.example.edu/script.html site=www.example.edu source=script:http://www.example.edu/nakika.js status=200
      3.79 ms load-stage  stage=http://nakika.net/clientwall.js
        0.00 ms cache-lookup  hit=false
        0.80 ms dht-lookup  hops=0 values=0
        1.33 ms origin-fetch  status=200
        0.00 ms script.compile  stage=http://nakika.net/clientwall.js
        0.00 ms script.lint  stage=http://nakika.net/clientwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      5.63 ms load-stage  stage=http://www.example.edu/nakika.js
        0.00 ms cache-lookup  hit=false
        2.40 ms dht-lookup  hops=3 values=0
        1.35 ms origin-fetch  status=200
        0.00 ms script.compile  stage=http://www.example.edu/nakika.js
        0.00 ms script.lint  stage=http://www.example.edu/nakika.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=true
      6.72 ms stage  stage=http://www.example.edu/nakika.js phase=onRequest
        6.72 ms interp  fuel=25 heap=28
      6.72 ms script-fetch  site=www.example.edu
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=0
        1.33 ms origin-fetch  status=200
trace 24 · started 1136073600.020
    0.80 ms peer-request  url=http://nakika.net/clientwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 26 · started 1136073600.024
    0.80 ms peer-request  url=http://www.example.edu/nakika.js site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 28 · started 1136073600.028
    0.80 ms peer-request  url=http://nakika.net/serverwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 30 · started 1136073600.036
    2.17 ms request  url=http://www.example.edu/index.html site=www.example.edu source=origin status=200
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      0.80 ms dht-lookup  hops=1 values=1
      1.24 ms peer-fetch  peer=nk3.nakika.net verified=true
        0.00 ms integrity-verify  result=ok
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 42 · started 1136073602.054
    0.80 ms peer-request  url=http://www.example.edu/index.html site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 44 · started 1136073604.060
    3.51 ms request  url=http://www.example.edu/study.html site=www.example.edu source=origin status=200
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      0.80 ms dht-lookup  hops=1 values=1
      1.24 ms peer-fetch  peer=nk3.nakika.net verified=false
        0.00 ms integrity-verify  result=violation
      1.34 ms origin-fetch  status=200
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 57 · started 1136073604.067
    0.80 ms peer-request  url=http://www.example.edu/fragment site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 59 · started 1136073604.070
    3.07 ms request  url=http://www.example.edu/page.html site=www.example.edu source=origin status=200
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      1.60 ms dht-lookup  hops=2 values=0
      1.33 ms origin-fetch  status=200
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 70 · started 1136073615.075
    3.06 ms request  url=http://www.example.edu/page.html site=www.example.edu source=origin status=200
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      1.60 ms dht-lookup  hops=2 values=0
      1.32 ms origin-fetch
        1.32 ms revalidation  status=304 not-modified=true
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 82 · started 1136073615.398
    0.00 ms request  url=http://www.example.edu/index.html site=www.example.edu outcome=deadline-admission status=504
== nk2.nakika.net
trace 1 · started 1136073600.040
  765.85 ms request  url=http://www.example.edu/index.html site=www.example.edu source=origin status=200
      3.69 ms load-stage  stage=http://nakika.net/clientwall.js
        0.00 ms cache-lookup  hit=false
        0.80 ms dht-lookup  hops=1 values=2
        1.23 ms peer-fetch  peer=nk3.nakika.net hedge_delay=0.7500 verified=true
          0.00 ms integrity-verify  result=unverified
        0.00 ms script.compile  stage=http://nakika.net/clientwall.js
        0.00 ms script.lint  stage=http://nakika.net/clientwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      4.73 ms load-stage  stage=http://www.example.edu/nakika.js
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=2
        1.26 ms peer-fetch  peer=nk3.nakika.net hedge_delay=0.7500 verified=true
          0.00 ms integrity-verify  result=ok
        0.00 ms script.compile  stage=http://www.example.edu/nakika.js
        0.00 ms script.lint  stage=http://www.example.edu/nakika.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      4.49 ms load-stage  stage=http://nakika.net/serverwall.js
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=2
        1.23 ms peer-fetch  peer=nk3.nakika.net hedge_delay=0.7500 verified=true
          0.00 ms integrity-verify  result=unverified
        0.00 ms script.compile  stage=http://nakika.net/serverwall.js
        0.00 ms script.lint  stage=http://nakika.net/serverwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      1.60 ms dht-lookup  hops=2 values=2
    751.24 ms peer-fetch  peer=nk1.nakika.net hedge_delay=0.7500 hedge_winner=nk3.nakika.net verified=true
        0.00 ms integrity-verify  result=ok
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 34 · started 1136073615.081
    0.80 ms peer-request  url=http://nakika.net/clientwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 36 · started 1136073615.085
    0.80 ms peer-request  url=http://www.example.edu/nakika.js site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 38 · started 1136073615.091
    0.80 ms peer-request  url=http://nakika.net/serverwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 40 · started 1136073615.397
    0.00 ms request  url=http://www.example.edu/index.html site=www.example.edu outcome=banned-site status=503
== nk3.nakika.net
trace 1 · started 1136073600.018
   15.95 ms request  url=http://www.example.edu/index.html site=www.example.edu source=origin status=200
      4.49 ms load-stage  stage=http://nakika.net/clientwall.js
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=1
        1.23 ms peer-fetch  peer=nk1.nakika.net verified=true
        0.00 ms script.compile  stage=http://nakika.net/clientwall.js
        0.00 ms script.lint  stage=http://nakika.net/clientwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      3.93 ms load-stage  stage=http://www.example.edu/nakika.js
        0.00 ms cache-lookup  hit=false
        0.80 ms dht-lookup  hops=1 values=1
        1.26 ms peer-fetch  peer=nk1.nakika.net verified=true
        0.00 ms script.compile  stage=http://www.example.edu/nakika.js
        0.00 ms script.lint  stage=http://www.example.edu/nakika.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      4.49 ms load-stage  stage=http://nakika.net/serverwall.js
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=1
        1.23 ms peer-fetch  peer=nk1.nakika.net verified=true
        0.00 ms script.compile  stage=http://nakika.net/serverwall.js
        0.00 ms script.lint  stage=http://nakika.net/serverwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      1.60 ms dht-lookup  hops=2 values=0
      1.34 ms origin-fetch  status=200
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 30 · started 1136073600.037
    0.80 ms peer-request  url=http://www.example.edu/index.html site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 32 · started 1136073600.041
    0.80 ms peer-request  url=http://nakika.net/clientwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 34 · started 1136073600.045
    0.80 ms peer-request  url=http://www.example.edu/nakika.js site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 36 · started 1136073600.050
    0.80 ms peer-request  url=http://nakika.net/serverwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 38 · started 1136073600.805
    0.80 ms peer-request  url=http://www.example.edu/index.html site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 40 · started 1136073604.055
    3.07 ms request  url=http://www.example.edu/study.html site=www.example.edu source=origin status=200
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=false
      0.00 ms policy-match  stage=http://nakika.net/serverwall.js matched=true
      0.00 ms cache-lookup  hit=false
      1.60 ms dht-lookup  hops=2 values=0
      1.34 ms origin-fetch  status=200
      0.00 ms stage  stage=http://nakika.net/serverwall.js phase=onResponse
        0.00 ms interp  fuel=4 heap=0
trace 51 · started 1136073604.061
    0.80 ms peer-request  url=http://www.example.edu/study.html site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 53 · started 1136073604.065
    2.94 ms request  url=http://www.example.edu/script.html site=www.example.edu deadline_remaining=5.0000 source=script:http://www.example.edu/nakika.js status=200
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=true
      2.85 ms stage  stage=http://www.example.edu/nakika.js phase=onRequest
        2.85 ms interp  fuel=25 heap=28
      2.85 ms script-fetch  site=www.example.edu
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=1
        1.24 ms peer-fetch  peer=nk1.nakika.net verified=true
trace 64 · started 1136073615.094
    0.80 ms peer-request  url=http://www.example.edu/fragment site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
== nk4.nakika.net
trace 1 · started 1136073615.080
   15.82 ms request  url=http://www.example.edu/script.html site=www.example.edu source=script:http://www.example.edu/nakika.js status=200
      4.49 ms load-stage  stage=http://nakika.net/clientwall.js
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=3
        1.23 ms peer-fetch  peer=nk2.nakika.net verified=true
        0.00 ms script.compile  stage=http://nakika.net/clientwall.js
        0.00 ms script.lint  stage=http://nakika.net/clientwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      3.93 ms load-stage  stage=http://www.example.edu/nakika.js
        0.00 ms cache-lookup  hit=false
        0.80 ms dht-lookup  hops=0 values=3
        1.26 ms peer-fetch  peer=nk2.nakika.net verified=true
        0.00 ms script.compile  stage=http://www.example.edu/nakika.js
        0.00 ms script.lint  stage=http://www.example.edu/nakika.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=true
      7.32 ms stage  stage=http://www.example.edu/nakika.js phase=onRequest
        7.32 ms interp  fuel=25 heap=28
      7.32 ms script-fetch  site=www.example.edu
        0.00 ms cache-lookup  hit=false
        0.80 ms dht-lookup  hops=1 values=2
        1.24 ms peer-fetch  peer=nk3.nakika.net verified=true
trace 26 · started 1136073615.101
    0.80 ms peer-request  url=http://nakika.net/clientwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 28 · started 1136073615.104
    0.80 ms peer-request  url=http://nakika.net/serverwall.js site=nakika.net status=200
      0.80 ms cache-lookup  hit=true
trace 30 · started 1136073615.110
    0.80 ms peer-request  url=http://www.example.edu/fragment site=www.example.edu status=200
      0.80 ms cache-lookup  hit=true
trace 24 · started 1136073615.097
   13.84 ms request  url=http://www.example.edu/script.html site=www.example.edu pressure=0.000 status=200 source=offload:nk5.nakika.net
     13.84 ms offload  target=nk5.nakika.net outcome=executed
== nk5.nakika.net
trace 1 · started 1136073615.097
   13.40 ms offload-request  url=http://www.example.edu/script.html site=www.example.edu origin=nk4.nakika.net source=script:http://www.example.edu/nakika.js status=200
      4.49 ms load-stage  stage=http://nakika.net/clientwall.js
        0.00 ms cache-lookup  hit=false
        1.60 ms dht-lookup  hops=2 values=4
        1.23 ms peer-fetch  peer=nk4.nakika.net verified=true
        0.00 ms script.compile  stage=http://nakika.net/clientwall.js
        0.00 ms script.lint  stage=http://nakika.net/clientwall.js errors=0 warnings=0
      0.00 ms policy-match  stage=http://nakika.net/clientwall.js matched=true
      0.00 ms stage  stage=http://nakika.net/clientwall.js phase=onRequest
        0.00 ms interp  fuel=4 heap=0
      0.00 ms policy-match  stage=http://www.example.edu/nakika.js matched=true
      7.32 ms stage  stage=http://www.example.edu/nakika.js phase=onRequest
        7.32 ms interp  fuel=25 heap=28
      7.32 ms script-fetch  site=www.example.edu
        0.00 ms cache-lookup  hit=false
        2.40 ms dht-lookup  hops=3 values=3
        1.24 ms peer-fetch  peer=nk4.nakika.net verified=true
|golden}

(* The first differing line, so a failure names what moved. *)
let first_difference expected actual =
  let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
  let rec go i e a =
    match (e, a) with
    | [], [] -> None
    | x :: e, y :: a when x = y -> go (i + 1) e a
    | x :: _, y :: _ -> Some (Printf.sprintf "line %d: expected %S, got %S" i x y)
    | x :: _, [] -> Some (Printf.sprintf "line %d: expected %S, got end of output" i x)
    | [], y :: _ -> Some (Printf.sprintf "line %d: unexpected %S" i y)
  in
  go 1 e a

let test_golden_span_trees () =
  let actual = span_trees () in
  match first_difference expected actual with
  | None -> ()
  | Some diff ->
    print_string actual;
    Alcotest.fail ("span trees differ from the golden copy at " ^ diff)

let suite = [ Alcotest.test_case "golden span trees of one seeded cluster" `Quick test_golden_span_trees ]
