(* The scripting pipeline (Fig. 4): stage evaluation, event-handler
   selection and execution, dynamic scheduling, walls, Na Kika Pages
   and ESI. *)

open Core.Pipeline
open Pipeline
open Core.Http

let host = Core.Vocab.Hostcall.stub ()

let stage_of ?(url = "http://site.org/nakika.js") source =
  match Stage.of_script ~url ~host ~source () with
  | Ok stage -> stage
  | Error msg -> Alcotest.failf "stage failed: %s" msg

let req ?(client = "1.2.3.4") url =
  Message.request
    ~client:{ Ip.ip = Ip.of_string_exn client; hostname = None }
    url

(* A loader over an in-memory table of script sources; caches stages the
   way a node would. *)
let loader table =
  let cache : (string, Stage.t) Hashtbl.t = Hashtbl.create 8 in
  fun url ->
    match Hashtbl.find_opt cache url with
    | Some stage -> Some stage
    | None -> (
      match List.assoc_opt url table with
      | None -> None
      | Some source ->
        let stage = stage_of ~url source in
        Hashtbl.add cache url stage;
        Some stage)

let origin_body = "<html>origin content</html>"

let origin_fetch _req = Message.response ~headers:[ ("Content-Type", "text/html") ] ~body:origin_body ()

let test_stage_evaluation_registers_policies () =
  let stage = stage_of {| var p = new Policy(); p.url = ["site.org"]; p.register(); |} in
  Alcotest.(check int) "one policy" 1 (List.length (Stage.policies stage));
  Alcotest.(check bool) "selects" true (Stage.select stage (req "http://site.org/x") <> None);
  Alcotest.(check bool) "rejects" true (Stage.select stage (req "http://other.org/x") = None)

let test_stage_error_reported () =
  match Stage.of_script ~url:"u" ~host ~source:"this is not a program ][" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected stage error"

let test_default_stages_order () =
  (* Fig. 4 pop order: client wall, site script, server wall, as
     [execute] asks for them. *)
  let asked = ref [] in
  let load url =
    asked := url :: !asked;
    None
  in
  ignore (execute ~load_stage:load ~fetch:origin_fetch (req "http://site.org/x"));
  Alcotest.(check (list string)) "order"
    [
      "http://nakika.net/clientwall.js";
      "http://site.org/nakika.js";
      "http://nakika.net/serverwall.js";
    ]
    (List.rev !asked)

let test_pipeline_passthrough () =
  let load = loader [] in
  let outcome = execute ~load_stage:load ~fetch:origin_fetch (req "http://site.org/x") in
  Alcotest.(check bool) "from origin" true (outcome.source = From_origin);
  Alcotest.(check int) "no stages matched" 0 outcome.stages_matched;
  Alcotest.(check string) "body" origin_body
    (Body.to_string outcome.response.Message.resp_body)

let test_pipeline_on_response_transform () =
  let table =
    [ ( "http://site.org/nakika.js",
        {|
var p = new Policy();
p.url = ["site.org"];
p.onResponse = function() {
  var body = "", c;
  while ((c = Response.read()) != null) { body += c; }
  Response.write(body.replace("origin", "edge"));
}
p.register();
|} ) ]
  in
  let outcome = execute ~load_stage:(loader table) ~fetch:origin_fetch (req "http://site.org/x") in
  Alcotest.(check string) "transformed" "<html>edge content</html>"
    (Body.to_string outcome.response.Message.resp_body);
  Alcotest.(check bool) "origin still fetched" true (outcome.source = From_origin);
  Alcotest.(check bool) "fuel charged" true (outcome.fuel > 0)

let test_pipeline_on_request_responds () =
  (* An onRequest handler that creates the response short-circuits the
     origin fetch (§3.1: "more efficient if responses are created from
     scratch"). *)
  let fetched = ref false in
  let table =
    [ ( "http://site.org/nakika.js",
        {|
var p = new Policy();
p.url = ["site.org"];
p.onRequest = function() {
  Request.respond(200, "text/plain", "generated at the edge");
}
p.register();
|} ) ]
  in
  let fetch _ =
    fetched := true;
    origin_fetch (req "http://site.org/x")
  in
  let outcome = execute ~load_stage:(loader table) ~fetch (req "http://site.org/x") in
  Alcotest.(check bool) "served by script" true
    (outcome.source = From_script "http://site.org/nakika.js");
  Alcotest.(check string) "body" "generated at the edge"
    (Body.to_string outcome.response.Message.resp_body);
  Alcotest.(check bool) "origin never contacted" false !fetched

let test_pipeline_terminate_admission () =
  (* Fig. 5 as a client wall. *)
  let wall =
    Wall_scripts.local_only_wall
      ~urls:[ "bmj.bmjjournals.com/cgi/reprint"; "content.nejm.org/cgi/reprint" ]
  in
  let table = [ ("http://nakika.net/clientwall.js", wall) ] in
  let outcome =
    execute ~load_stage:(loader table) ~fetch:origin_fetch
      (req "http://content.nejm.org/cgi/reprint/paper.pdf")
  in
  Alcotest.(check int) "401" 401 outcome.response.Message.status;
  (* Non-library requests pass. *)
  let ok = execute ~load_stage:(loader table) ~fetch:origin_fetch (req "http://other.org/") in
  Alcotest.(check int) "200" 200 ok.response.Message.status

let test_pipeline_next_stages () =
  (* A service that schedules another stage after itself (§3.1's
     annotations-over-SIMMs composition shape). *)
  let table =
    [
      ( "http://site.org/nakika.js",
        {|
var p = new Policy();
p.url = ["site.org"];
p.nextStages = ["http://svc.org/upper.js"];
p.onResponse = function() {
  var body = "", c;
  while ((c = Response.read()) != null) { body += c; }
  Response.write(body + "<!--site-->");
}
p.register();
|} );
      ( "http://svc.org/upper.js",
        {|
var p = new Policy();
p.onResponse = function() {
  var body = "", c;
  while ((c = Response.read()) != null) { body += c; }
  Response.write(body.toUpperCase());
}
p.register();
|} );
    ]
  in
  let outcome = execute ~load_stage:(loader table) ~fetch:origin_fetch (req "http://site.org/x") in
  (* Dynamically scheduled stage runs *after* the scheduler in the
     forward direction, hence *before* it on the response path: upper
     first, then the site's comment appended. *)
  Alcotest.(check string) "composition order" "<HTML>ORIGIN CONTENT</HTML><!--site-->"
    (Body.to_string outcome.response.Message.resp_body);
  Alcotest.(check int) "both stages matched" 2 outcome.stages_matched

let test_pipeline_scheduling_loop_bounded () =
  let table =
    [ ( "http://site.org/nakika.js",
        {|
var p = new Policy();
p.nextStages = ["http://site.org/nakika.js"];
p.register();
|} ) ]
  in
  let outcome =
    execute ~load_stage:(loader table) ~fetch:origin_fetch
      (req "http://site.org/x")
  in
  Alcotest.(check bool) "fails closed" true
    (match outcome.source with From_failure (Script_failure _) -> true | _ -> false);
  Alcotest.(check int) "500" 500 outcome.response.Message.status

let test_pipeline_script_error_yields_500 () =
  let table =
    [ ( "http://site.org/nakika.js",
        {|
var p = new Policy();
p.onResponse = function() { undefinedGlobal.boom(); }
p.register();
|} ) ]
  in
  let outcome = execute ~load_stage:(loader table) ~fetch:origin_fetch (req "http://site.org/x") in
  Alcotest.(check int) "500" 500 outcome.response.Message.status;
  Alcotest.(check bool) "failure recorded" true
    (match outcome.source with From_failure (Script_failure _) -> true | _ -> false)

let test_pipeline_resource_exhaustion_yields_503 () =
  let source =
    {|
var p = new Policy();
p.onResponse = function() { while (true) { } }
p.register();
|}
  in
  let stage =
    match
      Stage.of_script ~url:"http://site.org/nakika.js" ~host ~max_fuel:50_000 ~source ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let outcome =
    execute
      ~load_stage:(fun url -> if url = "http://site.org/nakika.js" then Some stage else None)
      ~fetch:origin_fetch (req "http://site.org/x")
  in
  Alcotest.(check int) "503" 503 outcome.response.Message.status;
  Alcotest.(check bool) "resources" true
    (match outcome.source with From_failure (Resources _) -> true | _ -> false)

let test_pipeline_killed_pipeline_dies () =
  let source =
    {|
var p = new Policy();
p.onResponse = function() { }
p.register();
|}
  in
  let stage =
    match Stage.of_script ~url:"http://site.org/nakika.js" ~host ~source () with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Core.Script.Interp.kill (Stage.context stage);
  let outcome =
    execute
      ~load_stage:(fun url -> if url = "http://site.org/nakika.js" then Some stage else None)
      ~fetch:origin_fetch (req "http://site.org/x")
  in
  Alcotest.(check bool) "killed" true (outcome.source = From_failure Killed);
  Alcotest.(check int) "503" 503 outcome.response.Message.status

let test_pipeline_client_predicate_selection () =
  (* Different handlers for different clients within one stage. *)
  let table =
    [ ( "http://site.org/nakika.js",
        {|
var vip = new Policy();
vip.url = ["site.org"];
vip.client = ["10.0.0.0/8"];
vip.onRequest = function() { Request.respond(200, "text/plain", "vip"); }
vip.register();

var everyone = new Policy();
everyone.url = ["site.org"];
everyone.onRequest = function() { Request.respond(200, "text/plain", "general"); }
everyone.register();
|} ) ]
  in
  let load = loader table in
  let vip = execute ~load_stage:load ~fetch:origin_fetch (req ~client:"10.5.5.5" "http://site.org/") in
  Alcotest.(check string) "vip handler" "vip" (Body.to_string vip.response.Message.resp_body);
  let general =
    execute ~load_stage:load ~fetch:origin_fetch (req ~client:"8.8.8.8" "http://site.org/")
  in
  Alcotest.(check string) "general handler" "general"
    (Body.to_string general.response.Message.resp_body)

let test_walls_default_are_noop () =
  let table =
    [
      ("http://nakika.net/clientwall.js", Walls.default_client_wall);
      ("http://nakika.net/serverwall.js", Walls.default_server_wall);
    ]
  in
  let outcome = execute ~load_stage:(loader table) ~fetch:origin_fetch (req "http://site.org/x") in
  Alcotest.(check int) "200" 200 outcome.response.Message.status;
  Alcotest.(check int) "both walls matched" 2 outcome.stages_matched

let test_walls_deny () =
  let table =
    [
      ( "http://nakika.net/clientwall.js",
        Wall_scripts.deny_urls_wall ~urls:[ "blocked.org" ] ~status:403 );
    ]
  in
  let load = loader table in
  let blocked = execute ~load_stage:load ~fetch:origin_fetch (req "http://blocked.org/x") in
  Alcotest.(check int) "403" 403 blocked.response.Message.status;
  let allowed = execute ~load_stage:load ~fetch:origin_fetch (req "http://fine.org/x") in
  Alcotest.(check int) "others pass" 200 allowed.response.Message.status

let test_rate_limit_wall () =
  let table =
    [ ("http://nakika.net/clientwall.js", Walls.rate_limit_wall ~max_per_client:3) ]
  in
  let load = loader table in
  let statuses =
    List.init 5 (fun _ ->
        (execute ~load_stage:load ~fetch:origin_fetch (req ~client:"9.9.9.9" "http://a.org/x"))
          .response.Message.status)
  in
  Alcotest.(check (list int)) "three pass, then 429" [ 200; 200; 200; 429; 429 ] statuses;
  (* A different client has its own budget. *)
  let other = execute ~load_stage:load ~fetch:origin_fetch (req ~client:"7.7.7.7" "http://a.org/x") in
  Alcotest.(check int) "other client ok" 200 other.response.Message.status

let test_nkp_render () =
  let ctx = Core.Script.Interp.create () in
  Core.Script.Builtins.install ctx;
  Core.Vocab.Eval_v.install ctx;
  Alcotest.(check string) "static text passes" "plain" (Nkp.render ctx "plain");
  Alcotest.(check string) "expression spliced" "2 + 2 = 4"
    (Nkp.render ctx "2 + 2 = <?nkp 2 + 2 ?>");
  Alcotest.(check string) "statements and state" "count: 3"
    (Nkp.render ctx "count: <?nkp var n = 0; n = n + 3; n ?>");
  Alcotest.(check string) "multiple chunks share globals" "a=1 b=2"
    (Nkp.render ctx "a=<?nkp var a = 1; a ?> b=<?nkp a + 1 ?>");
  Alcotest.(check string) "null output suppressed" "x" (Nkp.render ctx "x<?nkp null ?>")

let test_nkp_stage () =
  (* The paper's path: a site schedules nakika.net/nkp.js; text/nkp
     responses are processed edge-side. *)
  let table =
    [
      ( "http://site.org/nakika.js",
        {|
var p = new Policy();
p.url = ["site.org"];
p.nextStages = ["http://nakika.net/nkp.js"];
p.register();
|} );
      ("http://nakika.net/nkp.js", Nkp.script);
    ]
  in
  let fetch _ =
    Message.response
      ~headers:[ ("Content-Type", "text/nkp") ]
      ~body:"<html><?nkp Request.query(\"user\") ?> has <?nkp 40 + 2 ?> points</html>" ()
  in
  let outcome =
    execute ~load_stage:(loader table) ~fetch (req "http://site.org/page.nkp?user=alice")
  in
  Alcotest.(check string) "rendered" "<html>alice has 42 points</html>"
    (Body.to_string outcome.response.Message.resp_body);
  Alcotest.(check (option string)) "content type html" (Some "text/html")
    (Message.content_type outcome.response)

let test_nkp_ignores_other_content () =
  (* The NKP script stands in for the site's own stage. *)
  let table = [ ("http://site.org/nakika.js", Nkp.script) ] in
  let fetch _ =
    Message.response ~headers:[ ("Content-Type", "text/html") ]
      ~body:"<html><?nkp 1 ?></html>" ()
  in
  let outcome =
    execute ~load_stage:(loader table) ~fetch (req "http://site.org/page.html")
  in
  Alcotest.(check string) "untouched" "<html><?nkp 1 ?></html>"
    (Body.to_string outcome.response.Message.resp_body)

let test_esi_stage () =
  let fetch (r : Message.request) =
    if r.Message.url.Url.path = "/fragment" then
      Message.response ~headers:[ ("Content-Type", "text/html") ] ~body:"FRAGMENT" ()
    else
      Message.response
        ~headers:[ ("Content-Type", "text/html") ]
        ~body:"<html><esi:include src=\"http://frags.org/fragment\"/></html>" ()
  in
  (* The stage's fetchResource must reach the same content handler. *)
  let esi_host = { (Core.Vocab.Hostcall.stub ()) with Core.Vocab.Hostcall.fetch = fetch } in
  let stage =
    match
      Stage.of_script ~url:"http://nakika.net/esi.js" ~host:esi_host ~source:Esi.script ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let outcome =
    (* The ESI stage stands in for the site's own stage. *)
    execute
      ~load_stage:(fun url -> if url = "http://site.org/nakika.js" then Some stage else None)
      ~fetch (req "http://site.org/page.html")
  in
  Alcotest.(check string) "assembled" "<html>FRAGMENT</html>"
    (Body.to_string outcome.response.Message.resp_body)

let test_run_handler_return_value_response () =
  (* Handlers may return a {status, contentType, body} object. *)
  let stage =
    stage_of
      {|
var p = new Policy();
p.onRequest = function() {
  return { status: 418, contentType: "text/plain", body: "teapot" };
}
p.register();
|}
  in
  let policy = Option.get (Stage.select stage (req "http://a.org/")) in
  let handler = Option.get policy.Core.Policy.Policy.on_request in
  match run_handler stage ~this_request:(req "http://a.org/") ~response:None handler with
  | Ok (Some resp) ->
    Alcotest.(check int) "status" 418 resp.Message.status;
    Alcotest.(check string) "body" "teapot" (Body.to_string resp.Message.resp_body)
  | _ -> Alcotest.fail "expected response"

let test_run_handler_return_value_headers () =
  (* The returned object's [headers] field must survive into the built
     response (it used to be silently dropped). *)
  let stage =
    stage_of
      {|
var p = new Policy();
p.onRequest = function() {
  return {
    status: 301,
    contentType: "text/plain",
    body: "moved",
    headers: { "Location": "http://b.org/", "X-Nakika-Stage": "wall", "X-Hops": 3 }
  };
}
p.register();
|}
  in
  let policy = Option.get (Stage.select stage (req "http://a.org/")) in
  let handler = Option.get policy.Core.Policy.Policy.on_request in
  match run_handler stage ~this_request:(req "http://a.org/") ~response:None handler with
  | Ok (Some resp) ->
    let header name = Headers.get resp.Message.resp_headers name in
    Alcotest.(check int) "status" 301 resp.Message.status;
    Alcotest.(check (option string)) "location" (Some "http://b.org/") (header "Location");
    Alcotest.(check (option string)) "custom" (Some "wall") (header "X-Nakika-Stage");
    Alcotest.(check (option string)) "number coerced" (Some "3") (header "X-Hops");
    Alcotest.(check (option string))
      "contentType stays authoritative" (Some "text/plain") (header "Content-Type")
  | _ -> Alcotest.fail "expected response"

let suite =
  [
    Alcotest.test_case "stage: script evaluation registers policies" `Quick
      test_stage_evaluation_registers_policies;
    Alcotest.test_case "stage: malformed script reported" `Quick test_stage_error_reported;
    Alcotest.test_case "default stage order (Fig. 4)" `Quick test_default_stages_order;
    Alcotest.test_case "pipeline: passthrough without scripts" `Quick test_pipeline_passthrough;
    Alcotest.test_case "pipeline: onResponse transformation" `Quick
      test_pipeline_on_response_transform;
    Alcotest.test_case "pipeline: onRequest creates response" `Quick
      test_pipeline_on_request_responds;
    Alcotest.test_case "pipeline: Fig. 5 admission control" `Quick
      test_pipeline_terminate_admission;
    Alcotest.test_case "pipeline: dynamic stage scheduling" `Quick test_pipeline_next_stages;
    Alcotest.test_case "pipeline: scheduling loops are bounded" `Quick
      test_pipeline_scheduling_loop_bounded;
    Alcotest.test_case "pipeline: script errors yield 500" `Quick
      test_pipeline_script_error_yields_500;
    Alcotest.test_case "pipeline: resource exhaustion yields 503" `Quick
      test_pipeline_resource_exhaustion_yields_503;
    Alcotest.test_case "pipeline: killed context aborts" `Quick test_pipeline_killed_pipeline_dies;
    Alcotest.test_case "pipeline: per-client handler selection" `Quick
      test_pipeline_client_predicate_selection;
    Alcotest.test_case "walls: defaults are no-ops" `Quick test_walls_default_are_noop;
    Alcotest.test_case "walls: URL deny list" `Quick test_walls_deny;
    Alcotest.test_case "walls: rate limiting" `Quick test_rate_limit_wall;
    Alcotest.test_case "nkp: direct rendering" `Quick test_nkp_render;
    Alcotest.test_case "nkp: as a pipeline stage" `Quick test_nkp_stage;
    Alcotest.test_case "nkp: leaves other content alone" `Quick test_nkp_ignores_other_content;
    Alcotest.test_case "esi: fragment assembly" `Quick test_esi_stage;
    Alcotest.test_case "handlers may return response objects" `Quick
      test_run_handler_return_value_response;
    Alcotest.test_case "returned response objects carry headers" `Quick
      test_run_handler_return_value_headers;
  ]
