(* Ablations for the design choices DESIGN.md calls out:
   - the decision-tree matcher vs a brute-force predicate scan,
   - scripting-context reuse vs a fresh context per request,
   - congestion-based resource control vs an a-priori quota,
   - cooperative (DHT) caching vs isolated per-node caches. *)

let time_per_op f iterations =
  let t0 = Sys.time () in
  for _ = 1 to iterations do
    f ()
  done;
  (Sys.time () -. t0) /. float_of_int iterations *. 1e6 (* microseconds *)

let matcher () =
  Harness.section "ablation: decision tree vs brute-force matching";
  let req = Core.Http.Message.request "http://site500.org/some/path" in
  List.iter
    (fun n ->
      let policies =
        List.init n (fun i ->
            Core.Policy.Policy.make
              ~urls:[ Printf.sprintf "site%d.org" i ]
              ~order:i)
      in
      let tree = Core.Policy.Decision_tree.build policies in
      let iterations = 2000 in
      let tree_us =
        time_per_op (fun () -> ignore (Core.Policy.Decision_tree.find_closest tree req)) iterations
      in
      let brute_us =
        time_per_op (fun () -> ignore (Core.Policy.Policy.closest_match policies req)) iterations
      in
      Printf.printf
        "  %5d policies: tree %8.2f us/lookup   brute force %8.2f us/lookup   (%.0fx)\n" n
        tree_us brute_us (brute_us /. tree_us))
    [ 10; 100; 1000 ]

let context_reuse () =
  Harness.section "ablation: scripting-context reuse vs fresh context per request";
  let host = Core.Vocab.Hostcall.stub () in
  let make () =
    let ctx = Core.Script.Interp.create () in
    Core.Vocab.Platform_v.install_all host ctx;
    ctx
  in
  let fresh_us = time_per_op (fun () -> ignore (make ())) 500 in
  (* Reusing one context: zero its usage counters (the node's stage
     loader does this on every stage-cache hit) and clear the kill
     flag. *)
  let ctx = make () in
  let reuse_us =
    time_per_op
      (fun () ->
        Core.Script.Interp.reset_usage ctx;
        Core.Script.Interp.revive ctx)
      100_000
  in
  Printf.printf "  fresh context+vocabularies: %8.1f us    context reuse: %8.2f us   (%.0fx)\n"
    fresh_us reuse_us (fresh_us /. reuse_us);
  print_endline "  (the paper measured 1.5 ms create vs 3 us reuse on 2006 hardware)"

let quota_vs_congestion () =
  Harness.section "ablation: congestion-based control vs a-priori quota";
  (* A legitimate burst: 40 clients hammering one site for 10 s. An
     a-priori per-client quota (the rate-limit wall) set for "normal"
     traffic rejects the burst tail; congestion-based control admits
     everything the node can actually handle. *)
  let run ~wall =
    let cluster = Core.Node.Cluster.create ?client_wall:wall ~seed:41 () in
    let origin = Core.Node.Cluster.add_origin cluster ~name:"event.example.org" () in
    Core.Node.Origin.set_static origin ~path:"/live.html" ~max_age:60 "<html>scores</html>";
    let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
    let clients =
      List.init 40 (fun i -> Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "c%d" i))
    in
    let sim = Core.Node.Cluster.sim cluster in
    let ok = ref 0 and rejected = ref 0 in
    List.iteri
      (fun i client ->
        (* Each load generator is a distinct client address. *)
        let addr =
          { Core.Http.Ip.ip = Core.Http.Ip.of_string_exn (Printf.sprintf "10.0.0.%d" (i + 1));
            hostname = None }
        in
        Core.Workload.Driver.closed_loop cluster ~client ~proxy ~think:0.05
          ~until:(Core.Sim.Sim.now sim +. 10.0)
          ~make_request:(fun _ ->
            Core.Http.Message.request ~client:addr "http://event.example.org/live.html")
          ~on_response:(fun _ _ resp _ ->
            if resp.Core.Http.Message.status = 200 then incr ok else incr rejected)
          ())
      clients;
    Core.Node.Cluster.run cluster;
    (!ok, !rejected)
  in
  let q_ok, q_rej = run ~wall:(Some (Core.Pipeline.Walls.rate_limit_wall ~max_per_client:60)) in
  let c_ok, c_rej = run ~wall:None in
  Printf.printf "  a-priori quota (60 req/client):  %5d served, %5d rejected (%.0f%% lost)\n"
    q_ok q_rej
    (100.0 *. float_of_int q_rej /. float_of_int (q_ok + q_rej));
  Printf.printf "  congestion-based control:        %5d served, %5d rejected\n" c_ok c_rej;
  print_endline
    "  the quota needs an administrator to guess the right constant (§3.2); congestion\n\
    \  control admits everything while the node is uncongested"

let dht_cooperation () =
  Harness.section "ablation: cooperative (DHT) caching vs isolated caches";
  let run ~enable_dht =
    let config = { Core.Node.Config.default with Core.Node.Config.enable_dht } in
    let cluster = Core.Node.Cluster.create ~seed:43 () in
    let origin = Core.Node.Cluster.add_origin cluster ~name:"content.example.org" () in
    for i = 0 to 199 do
      Core.Node.Origin.set_static origin
        ~path:(Printf.sprintf "/object%d.html" i)
        ~max_age:600
        (Printf.sprintf "<html>object %d</html>" i)
    done;
    Core.Node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
      ~max_age:600 "var p = new Policy(); p.onResponse = function() { }; p.register();";
    let proxies =
      List.init 8 (fun i ->
          Core.Node.Cluster.add_proxy cluster ~name:(Printf.sprintf "nk%d.nakika.net" i) ~config ())
    in
    let client = Core.Node.Cluster.add_client cluster ~name:"c" in
    let rng = Core.Util.Prng.create 9 in
    let proxies = Array.of_list proxies in
    let sim = Core.Node.Cluster.sim cluster in
    (* 2000 requests for 200 objects spread over 8 proxies. *)
    let remaining = ref 2000 in
    let rec next () =
      if !remaining > 0 then begin
        decr remaining;
        let obj = Core.Util.Prng.int rng 200 in
        let proxy = proxies.(Core.Util.Prng.int rng 8) in
        Core.Node.Cluster.fetch cluster ~client ~proxy
          (Core.Http.Message.request
             (Printf.sprintf "http://content.example.org/object%d.html" obj))
          (fun _ -> Core.Sim.Sim.schedule sim ~delay:0.01 next)
      end
    in
    next ();
    Core.Node.Cluster.run cluster;
    Core.Node.Origin.request_count origin
  in
  let isolated = run ~enable_dht:false in
  let cooperative = run ~enable_dht:true in
  Printf.printf
    "  2000 requests, 200 objects, 8 nodes: origin fetches %d isolated vs %d cooperative (%.1fx fewer)\n"
    isolated cooperative
    (float_of_int isolated /. float_of_int cooperative);
  print_endline "  one cached copy in the network suffices to avoid origin accesses (§1)"


let replication_strategies () =
  Harness.section "ablation: optimistic vs primary-serialized hard state";
  (* Gao-style tradeoff (§3.3): optimistic replication applies writes
     locally at once (fast, convergent, last-writer-wins); routing
     through a primary serializes all updates (one authoritative order)
     at the cost of a round trip before the write is visible. *)
  let run strategy =
    let sim = Core.Sim.Sim.create () in
    let net = Core.Sim.Net.create sim () in
    let bus = Core.Replication.Message_bus.create net in
    let nodes =
      List.init 5 (fun i ->
          let name = Printf.sprintf "edge%d" i in
          let host = Core.Sim.Net.add_host net ~name () in
          Core.Replication.Replication.attach ~bus ~name ~host
            ~store:(Core.Replication.Store.create ()) ~site:"a.org" strategy)
    in
    let writer = List.nth nodes 4 in
    let t0 = Core.Sim.Sim.now sim in
    ignore (Core.Replication.Replication.update writer ~key:"k" ~value:"v");
    let local_visible = Core.Replication.Replication.read writer ~key:"k" = Some "v" in
    Core.Sim.Sim.run sim;
    let converged =
      List.for_all (fun n -> Core.Replication.Replication.read n ~key:"k" = Some "v") nodes
    in
    (local_visible, converged, Core.Sim.Sim.now sim -. t0)
  in
  let o_local, o_conv, o_time = run Core.Replication.Replication.Optimistic in
  let p_local, p_conv, p_time = run (Core.Replication.Replication.Primary "edge0") in
  Printf.printf
    "  optimistic:          write visible locally at once: %b   all converged: %b (%.0f us)\n"
    o_local o_conv (1e6 *. o_time);
  Printf.printf
    "  primary-serialized:  write visible locally at once: %b   all converged: %b (%.0f us)\n"
    p_local p_conv (1e6 *. p_time);
  print_endline
    "  sites pick their trade-off per §3.3: availability (optimistic) vs\n\
    \  serializability (route updates through a primary)"

let ablations () =
  Harness.header "Ablations";
  matcher ();
  context_reuse ();
  quota_vs_congestion ();
  dht_cooperation ();
  replication_strategies ()
