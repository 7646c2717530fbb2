(* Edge Side Includes (§3.1: ESI "can easily be supported within Na
   Kika") plus access-log replay (§5.2's methodology): a portal page is
   assembled at the edge from independently cached fragments, driven by
   a synthesized Apache Common Log Format log.

     dune exec examples/esi_portal.exe

   The portal skeleton changes rarely (max-age 600); the news fragment
   changes often (max-age 5). ESI assembly at the edge means the node
   refetches only the volatile fragment, not the whole page — watch the
   per-path origin hit counts. *)

let portal_skeleton =
  {|<html><head><title>Campus portal</title></head><body>
<h1>Campus portal</h1>
<esi:include src="http://portal.example.edu/fragments/news.html"/>
<esi:include src="http://portal.example.edu/fragments/menu.html"/>
</body></html>|}

let site_script =
  {|
var p = new Policy();
p.url = ["portal.example.edu"];
p.nextStages = ["http://nakika.net/esi.js"];
p.register();
|}

let () =
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"portal.example.edu" () in
  let news_version = ref 0 in
  (* The skeleton and menu are stable; the news fragment is volatile. *)
  Core.Node.Origin.set_static origin ~path:"/index.html" ~content_type:"text/html"
    ~max_age:600 portal_skeleton;
  Core.Node.Origin.set_static origin ~path:"/fragments/menu.html" ~content_type:"text/html"
    ~max_age:600 "<nav>home | courses | library</nav>";
  Core.Node.Origin.set_dynamic origin ~prefix:"/fragments/news.html" ~cpu:0.001 (fun _ ->
      incr news_version;
      Core.Http.Message.response
        ~headers:[ ("Content-Type", "text/html"); ("Cache-Control", "max-age=5") ]
        ~body:(Printf.sprintf "<section>breaking news #%d</section>" !news_version)
        ());
  Core.Node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
    ~max_age:300 site_script;

  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Core.Node.Cluster.add_client cluster ~name:"campus" in

  (* Drive it with a synthesized access log, replayed CLF-style. *)
  let rng = Core.Util.Prng.create 12 in
  let log =
    Core.Workload.Logreplay.synthesize ~rng
      ~start:(Core.Sim.Sim.now (Core.Node.Cluster.sim cluster))
      ~duration:30.0 ~clients:6 ~paths:[| "/index.html" |]
  in
  let entries, malformed = Core.Workload.Logreplay.parse_log log in
  Printf.printf "replaying %d logged requests (%d malformed lines)\n" (List.length entries)
    malformed;
  let events =
    Core.Workload.Logreplay.to_events ~host:"portal.example.edu" ~accelerate:1.0 entries
  in
  let sim = Core.Node.Cluster.sim cluster in
  let recorder = Core.Workload.Driver.recorder cluster in
  List.iter
    (fun (offset, req) ->
      Core.Sim.Sim.schedule sim ~delay:offset (fun () ->
          Core.Workload.Driver.send recorder ~client ~proxy:(Some proxy) ~timeout:30.0 req))
    events;
  let pages =
    List.filter_map
      (fun (a : Core.Workload.Driver.answer) ->
        let body = Core.Http.Body.to_string a.response.Core.Http.Message.resp_body in
        if
          a.response.Core.Http.Message.status = 200
          && Core.Util.Strutil.contains_sub body ~sub:"breaking news"
          && Core.Util.Strutil.contains_sub body ~sub:"<nav>"
        then Some body
        else None)
      (Core.Workload.Driver.finish recorder ~until:(Core.Sim.Sim.now sim +. 60.0))
  in

  Printf.printf "pages fully assembled at the edge: %d\n" (List.length pages);
  Printf.printf "last page:\n%s\n" (List.fold_left (fun _ body -> body) "" pages);
  Printf.printf "origin requests: %d total, %d to the volatile news fragment\n"
    (Core.Node.Origin.request_count origin)
    !news_version;
  print_endline
    "(the skeleton and menu were fetched once; only the 5-second news fragment refreshes)"
