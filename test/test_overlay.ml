(* The structured overlay: ring membership and routing, TTL'd DHT
   storage, DNS redirection. *)

open Core.Overlay

let test_node_id_deterministic () =
  Alcotest.(check bool) "same name same id" true
    (Node_id.equal (Node_id.of_string "node-a") (Node_id.of_string "node-a"));
  Alcotest.(check bool) "names differ" false
    (Node_id.equal (Node_id.of_string "node-a") (Node_id.of_string "node-b"))

(* Ids are ints in [0, 2^62): their order, and clockwise distance on
   the ring. *)
let int_of_id (id : Node_id.t) = (id :> int)

let id_compare a b = Int.compare (int_of_id a) (int_of_id b)

let distance a b = (int_of_id b - int_of_id a) land max_int

let test_ring_distance () =
  (* Every hop before the owner lands strictly closer to the key,
     clockwise; the owner is the key's successor. *)
  let r = Ring.create () in
  for i = 1 to 64 do
    Ring.join r (Node_id.of_string (Printf.sprintf "node%d" i))
  done;
  List.iter (fun n -> Ring.join r (Node_id.of_int n)) [ 0; max_int ];
  let from = Node_id.of_string "node1" in
  for i = 1 to 100 do
    let key = Node_id.of_string (Printf.sprintf "key%d" i) in
    let rec closer prev = function
      | [] -> ()
      | [ owner ] ->
        Alcotest.(check int) "ends at the successor"
          (int_of_id (Option.get (Ring.successor r key))) (int_of_id owner)
      | hop :: rest ->
        Alcotest.(check bool) "hop moves closer" true (distance hop key < distance prev key);
        closer hop rest
    in
    closer from (Ring.lookup_path r ~from ~key)
  done

let test_ring_membership () =
  let r = Ring.create () in
  let a = Node_id.of_int 100 in
  Ring.join r a;
  Ring.join r a;
  Alcotest.(check int) "idempotent join" 1 (List.length (Ring.nodes r));
  Ring.leave r a;
  Alcotest.(check int) "left" 0 (List.length (Ring.nodes r))

let test_ring_successor () =
  let r = Ring.create () in
  List.iter (fun i -> Ring.join r (Node_id.of_int i)) [ 10; 20; 30 ];
  let successor k = int_of_id (Option.get (Ring.successor r (Node_id.of_int k))) in
  Alcotest.(check int) "between" 20 (successor 15);
  Alcotest.(check int) "exact" 20 (successor 20);
  Alcotest.(check int) "wraparound" 10 (successor 31);
  Alcotest.(check bool) "empty ring" true (Ring.successor (Ring.create ()) (Node_id.of_int 1) = None)

let test_ring_lookup_path_terminates () =
  let r = Ring.create () in
  for i = 1 to 50 do
    Ring.join r (Node_id.of_string (Printf.sprintf "node%d" i))
  done;
  let from = Node_id.of_string "node1" in
  for i = 1 to 100 do
    let key = Node_id.of_string (Printf.sprintf "key%d" i) in
    let path = Ring.lookup_path r ~from ~key in
    Alcotest.(check bool) "bounded path" true (List.length path <= 60);
    match Ring.successor r key with
    | Some owner when path <> [] ->
      Alcotest.(check bool) "ends at owner" true
        (Node_id.equal owner (List.nth path (List.length path - 1)))
    | _ -> ()
  done

let test_ring_lookup_log_hops () =
  let r = Ring.create () in
  for i = 1 to 128 do
    Ring.join r (Node_id.of_string (Printf.sprintf "n%d" i))
  done;
  let from = Node_id.of_string "n1" in
  let total = ref 0 in
  for i = 1 to 200 do
    total := !total + List.length (Ring.lookup_path r ~from ~key:(Node_id.of_string (Printf.sprintf "k%d" i)))
  done;
  let avg = float_of_int !total /. 200.0 in
  (* log2(128) = 7; greedy finger routing should stay well under 2x. *)
  Alcotest.(check bool) (Printf.sprintf "avg hops %.1f <= 14" avg) true (avg <= 14.0)

let test_dht_put_get () =
  let dht = Dht.create () in
  ignore (Dht.join dht "alpha");
  ignore (Dht.join dht "beta");
  ignore (Dht.put dht ~now:0.0 ~from:"alpha" ~key:"GET http://x.org/p" ~value:"alpha" ~ttl:60.0);
  let r = Dht.get dht ~now:1.0 ~from:"beta" ~key:"GET http://x.org/p" in
  Alcotest.(check (list string)) "found" [ "alpha" ] r.Dht.values

let test_dht_ttl_expiry () =
  let dht = Dht.create () in
  ignore (Dht.join dht "alpha");
  ignore (Dht.put dht ~now:0.0 ~from:"alpha" ~key:"k" ~value:"v" ~ttl:10.0);
  Alcotest.(check (list string)) "live" [ "v" ] (Dht.get dht ~now:9.0 ~from:"alpha" ~key:"k").Dht.values;
  Alcotest.(check (list string)) "expired" [] (Dht.get dht ~now:10.5 ~from:"alpha" ~key:"k").Dht.values

let test_dht_multiple_values () =
  let dht = Dht.create () in
  List.iter (fun n -> ignore (Dht.join dht n)) [ "a"; "b"; "c" ];
  ignore (Dht.put dht ~now:0.0 ~from:"a" ~key:"k" ~value:"a" ~ttl:60.0);
  ignore (Dht.put dht ~now:1.0 ~from:"b" ~key:"k" ~value:"b" ~ttl:60.0);
  let values = (Dht.get dht ~now:2.0 ~from:"c" ~key:"k").Dht.values in
  Alcotest.(check (list string)) "newest first, both live" [ "b"; "a" ] values

let test_dht_reannounce_dedupes () =
  let dht = Dht.create () in
  ignore (Dht.join dht "a");
  ignore (Dht.put dht ~now:0.0 ~from:"a" ~key:"k" ~value:"a" ~ttl:5.0);
  ignore (Dht.put dht ~now:3.0 ~from:"a" ~key:"k" ~value:"a" ~ttl:5.0);
  let values = (Dht.get dht ~now:6.0 ~from:"a" ~key:"k").Dht.values in
  Alcotest.(check (list string)) "single refreshed entry" [ "a" ] values

let test_dht_value_cap () =
  let dht = Dht.create () in
  ignore (Dht.join dht "n");
  for i = 1 to 20 do
    ignore (Dht.put dht ~now:0.0 ~from:"n" ~key:"k" ~value:(string_of_int i) ~ttl:60.0)
  done;
  let values = (Dht.get dht ~now:1.0 ~from:"n" ~key:"k").Dht.values in
  Alcotest.(check (list string)) "newest sixteen"
    (List.init 16 (fun i -> string_of_int (20 - i)))
    values

let test_dht_unjoined_put_raises () =
  let dht = Dht.create () in
  match Dht.put dht ~now:0.0 ~from:"ghost" ~key:"k" ~value:"v" ~ttl:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_dht_lookup_under_churn () =
  (* Announcements live on the owner plus a successor replica; with any
     single node crashed (per the liveness oracle), every key is still
     readable via fallback, and the skips are counted. *)
  let dht = Dht.create () in
  let names = [ "alpha"; "beta"; "gamma"; "delta" ] in
  List.iter (fun n -> ignore (Dht.join dht n)) names;
  let keys = List.init 12 (fun i -> Printf.sprintf "GET http://site%d.org/obj" i) in
  List.iter
    (fun k -> ignore (Dht.put dht ~now:0.0 ~from:"alpha" ~key:k ~value:"holder" ~ttl:600.0))
    keys;
  let down = ref None in
  Dht.set_liveness dht (fun n -> !down <> Some n);
  let total_fallbacks = ref 0 in
  List.iter
    (fun crashed ->
      down := Some crashed;
      let from = List.find (fun n -> n <> crashed) names in
      List.iter
        (fun k ->
          let l = Dht.get dht ~now:1.0 ~from ~key:k in
          total_fallbacks := !total_fallbacks + l.Dht.fallbacks;
          Alcotest.(check (list string))
            (Printf.sprintf "%s readable with %s down" k crashed)
            [ "holder" ] l.Dht.values)
        keys)
    names;
  (* With 4 nodes and 12 keys, some owner was down at some point. *)
  Alcotest.(check bool) "fallbacks actually exercised" true (!total_fallbacks > 0);
  Alcotest.(check bool) "fallbacks metered" true
    (Core.Telemetry.Metrics.counter (Dht.metrics dht) "dht.fallbacks" > 0)

let dht_soft_state_prop =
  QCheck.Test.make ~name:"dht: any joined node can read back any announcement" ~count:100
    QCheck.(pair (int_range 2 12) (small_list (string_of_size (QCheck.Gen.int_range 1 20))))
    (fun (n_nodes, keys) ->
      let dht = Dht.create () in
      let names = List.init n_nodes (fun i -> Printf.sprintf "node%d" i) in
      List.iter (fun n -> ignore (Dht.join dht n)) names;
      List.for_all
        (fun key ->
          ignore (Dht.put dht ~now:0.0 ~from:(List.hd names) ~key ~value:"owner" ~ttl:60.0);
          List.for_all
            (fun reader -> (Dht.get dht ~now:1.0 ~from:reader ~key).Dht.values = [ "owner" ])
            names)
        keys)


let test_dht_survives_churn () =
  (* Soft state + re-announcement keep content findable across churn:
     after a node joins, re-announced keys resolve again. (Cluster's
     nodes never leave the ring; a crash is a liveness change.) *)
  let dht = Dht.create () in
  List.iter (fun n -> ignore (Dht.join dht n)) [ "a"; "b"; "c"; "d" ];
  ignore (Dht.put dht ~now:0.0 ~from:"a" ~key:"obj" ~value:"a" ~ttl:60.0);
  (* Churn: a new node may take over the key's region. *)
  ignore (Dht.join dht "e");
  (* The announcement may now sit off the key's replica set; soft state
     is repaired by the owner re-announcing (as caches do periodically). *)
  ignore (Dht.put dht ~now:1.0 ~from:"a" ~key:"obj" ~value:"a" ~ttl:60.0);
  List.iter
    (fun reader ->
      Alcotest.(check (list string)) (reader ^ " finds it") [ "a" ]
        (Dht.get dht ~now:2.0 ~from:reader ~key:"obj").Dht.values)
    [ "a"; "b"; "c"; "d"; "e" ]

let test_ring_lookup_consistent_across_nodes () =
  (* Every node routing to the same key reaches the same owner. *)
  let r = Ring.create () in
  let names = List.init 20 (fun i -> Printf.sprintf "n%d" i) in
  List.iter (fun n -> Ring.join r (Node_id.of_string n)) names;
  let key = Node_id.of_string "some-object" in
  let owner = Option.get (Ring.successor r key) in
  List.iter
    (fun n ->
      let from = Node_id.of_string n in
      let path = Ring.lookup_path r ~from ~key in
      let arrived = match List.rev path with last :: _ -> last | [] -> from in
      Alcotest.(check bool) (n ^ " reaches owner") true (Node_id.equal arrived owner))
    names

let test_redirector_nearest () =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let near = Core.Sim.Net.add_host net ~name:"near" () in
  let far = Core.Sim.Net.add_host net ~name:"far" () in
  let client = Core.Sim.Net.add_host net ~name:"client" () in
  Core.Sim.Net.connect net client near ~latency:0.005 ~bandwidth:1e7;
  Core.Sim.Net.connect net client far ~latency:0.2 ~bandwidth:1e7;
  let red = Redirector.create net in
  Redirector.add_proxy red near;
  Redirector.add_proxy red far;
  let rng = Core.Util.Prng.create 1 in
  for _ = 1 to 10 do
    match Redirector.pick red ~spread:1 ~rng ~client () with
    | Some h -> Alcotest.(check string) "nearest" "near" (Core.Sim.Net.host_name h)
    | None -> Alcotest.fail "no proxy"
  done

let test_redirector_spread () =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  let hosts = List.init 4 (fun i -> Core.Sim.Net.add_host net ~name:(Printf.sprintf "p%d" i) ()) in
  List.iter (Redirector.add_proxy red) hosts;
  let client = Core.Sim.Net.add_host net ~name:"c" () in
  let rng = Core.Util.Prng.create 5 in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 60 do
    match Redirector.pick red ~spread:4 ~rng ~client () with
    | Some h -> Hashtbl.replace seen (Core.Sim.Net.host_name h) ()
    | None -> ()
  done;
  Alcotest.(check bool) "load spreads over several proxies" true (Hashtbl.length seen >= 2)

let test_redirector_empty () =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  let client = Core.Sim.Net.add_host net ~name:"c" () in
  Alcotest.(check bool) "none" true
    (Redirector.pick red ~spread:1 ~rng:(Core.Util.Prng.create 1) ~client () = None)

let test_redirector_remove () =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  let p = Core.Sim.Net.add_host net ~name:"p" () in
  Redirector.add_proxy red p;
  Redirector.remove_proxy red p;
  Alcotest.(check (list string)) "empty" []
    (List.map Core.Sim.Net.host_name (Redirector.proxies red))

let test_redirector_spread_clamped () =
  (* A spread wider than the registered pool clamps instead of raising. *)
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  let p0 = Core.Sim.Net.add_host net ~name:"p0" () in
  let p1 = Core.Sim.Net.add_host net ~name:"p1" () in
  Redirector.add_proxy red p0;
  Redirector.add_proxy red p1;
  let client = Core.Sim.Net.add_host net ~name:"c" () in
  let rng = Core.Util.Prng.create 7 in
  for _ = 1 to 20 do
    match Redirector.pick red ~spread:10 ~rng ~client () with
    | Some h ->
      let n = Core.Sim.Net.host_name h in
      Alcotest.(check bool) "a registered proxy" true (n = "p0" || n = "p1")
    | None -> Alcotest.fail "must pick from a non-empty pool"
  done

let test_redirector_skips_crashed () =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let t0 = Core.Sim.Sim.now sim in
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.crash plan ~host:"down" ~at:t0 ();
  Core.Sim.Net.set_faults net plan;
  let up = Core.Sim.Net.add_host net ~name:"up" () in
  let down = Core.Sim.Net.add_host net ~name:"down" () in
  let client = Core.Sim.Net.add_host net ~name:"c" () in
  (* The crashed node is nearer — it must still never be returned. *)
  Core.Sim.Net.connect net client down ~latency:0.005 ~bandwidth:1e7;
  Core.Sim.Net.connect net client up ~latency:0.2 ~bandwidth:1e7;
  let red = Redirector.create net in
  Redirector.add_proxy red down;
  Redirector.add_proxy red up;
  let rng = Core.Util.Prng.create 3 in
  for _ = 1 to 20 do
    match Redirector.pick red ~spread:2 ~rng ~client () with
    | Some h -> Alcotest.(check string) "live proxy only" "up" (Core.Sim.Net.host_name h)
    | None -> Alcotest.fail "a live proxy exists"
  done

let test_redirector_health_weighting () =
  (* Two equidistant proxies, one reporting saturation: the healthy one
     absorbs the bulk of the redirections. *)
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  let idle = Core.Sim.Net.add_host net ~name:"idle" () in
  let busy = Core.Sim.Net.add_host net ~name:"busy" () in
  let client = Core.Sim.Net.add_host net ~name:"c" () in
  Core.Sim.Net.connect net client idle ~latency:0.01 ~bandwidth:1e7;
  Core.Sim.Net.connect net client busy ~latency:0.01 ~bandwidth:1e7;
  Redirector.add_proxy red idle;
  Redirector.add_proxy red busy;
  Redirector.report red idle ~incarnation:0 ~queue_delay:0.0 ~shed_rate:0.0 ();
  Redirector.report red busy ~incarnation:0 ~queue_delay:5.0 ~shed_rate:0.9 ();
  let rng = Core.Util.Prng.create 11 in
  let busy_picks = ref 0 in
  let draws = 400 in
  for _ = 1 to draws do
    match Redirector.pick red ~spread:2 ~rng ~client () with
    | Some h -> if Core.Sim.Net.host_name h = "busy" then incr busy_picks
    | None -> Alcotest.fail "pool is non-empty"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "saturated node got %d/%d picks (< 20%%)" !busy_picks draws)
    true
    (float_of_int !busy_picks < 0.2 *. float_of_int draws)

let test_redirector_incarnation_guard () =
  (* A report from a node's dead incarnation (sent before a crash the
     redirector already heard about) must not overwrite newer state. *)
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  let p = Core.Sim.Net.add_host net ~name:"p" () in
  Redirector.add_proxy red p;
  Redirector.report red p ~incarnation:1 ~queue_delay:0.1 ~shed_rate:0.2 ();
  Redirector.report red p ~incarnation:0 ~queue_delay:9.9 ~shed_rate:0.9 ();
  (match Redirector.health red p with
   | Some h ->
     Alcotest.(check (float 1e-9)) "stale delay ignored" 0.1 h.Redirector.queue_delay;
     Alcotest.(check (float 1e-9)) "stale rate ignored" 0.2 h.Redirector.shed_rate;
     Alcotest.(check int) "incarnation kept" 1 h.Redirector.incarnation
   | None -> Alcotest.fail "report stored");
  (* Same-incarnation reports refresh freely. *)
  Redirector.report red p ~incarnation:1 ~queue_delay:0.5 ~shed_rate:0.0 ();
  match Redirector.health red p with
  | Some h -> Alcotest.(check (float 1e-9)) "refreshed" 0.5 h.Redirector.queue_delay
  | None -> Alcotest.fail "report stored"

let test_redirector_staleness_bound () =
  (* A node that stops reporting must stop attracting traffic once its
     last report ages past the staleness bound — it gets the recovery
     trickle, not the unknown-node benefit of the doubt. *)
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let red = Redirector.create net in
  Redirector.set_staleness red 3.0;
  let silent = Core.Sim.Net.add_host net ~name:"silent" () in
  let fresh = Core.Sim.Net.add_host net ~name:"fresh" () in
  let client = Core.Sim.Net.add_host net ~name:"c" () in
  Core.Sim.Net.connect net client silent ~latency:0.01 ~bandwidth:1e7;
  Core.Sim.Net.connect net client fresh ~latency:0.01 ~bandwidth:1e7;
  Redirector.add_proxy red silent;
  Redirector.add_proxy red fresh;
  (* Both report idle at t=0; only [fresh] keeps reporting. *)
  Redirector.report red silent ~incarnation:0 ~queue_delay:0.0 ~shed_rate:0.0 ();
  Redirector.report red fresh ~incarnation:0 ~queue_delay:0.0 ~shed_rate:0.0 ();
  Core.Sim.Sim.schedule sim ~delay:10.0 (fun () ->
      Redirector.report red fresh ~incarnation:0 ~queue_delay:0.0 ~shed_rate:0.0 ());
  Core.Sim.Sim.run sim;
  let rng = Core.Util.Prng.create 13 in
  let silent_picks = ref 0 in
  let draws = 400 in
  for _ = 1 to draws do
    match Redirector.pick red ~spread:2 ~rng ~client () with
    | Some h -> if Core.Sim.Net.host_name h = "silent" then incr silent_picks
    | None -> Alcotest.fail "pool is non-empty"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "silent node got %d/%d picks (< 10%%)" !silent_picks draws)
    true
    (float_of_int !silent_picks < 0.1 *. float_of_int draws);
  (* A fresh report brings it straight back into rotation. *)
  Redirector.report red silent ~incarnation:0 ~queue_delay:0.0 ~shed_rate:0.0 ();
  let silent_after = ref 0 in
  for _ = 1 to draws do
    match Redirector.pick red ~spread:2 ~rng ~client () with
    | Some h -> if Core.Sim.Net.host_name h = "silent" then incr silent_after
    | None -> Alcotest.fail "pool is non-empty"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "recovered node got %d/%d picks (> 30%%)" !silent_after draws)
    true
    (float_of_int !silent_after > 0.3 *. float_of_int draws)

let test_redirector_link_after_pick () =
  (* A link made after a client's first pick must change later picks:
     nothing may keep ranking proxies by the old topology. *)
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let near = Core.Sim.Net.add_host net ~name:"near" () in
  let far = Core.Sim.Net.add_host net ~name:"far" () in
  let nearer = Core.Sim.Net.add_host net ~name:"nearer" () in
  let client = Core.Sim.Net.add_host net ~name:"client" () in
  Core.Sim.Net.connect net client near ~latency:0.005 ~bandwidth:1e7;
  Core.Sim.Net.connect net client far ~latency:0.2 ~bandwidth:1e7;
  Core.Sim.Net.connect net client nearer ~latency:0.1 ~bandwidth:1e7;
  let red = Redirector.create net in
  List.iter (Redirector.add_proxy red) [ near; far; nearer ];
  let rng = Core.Util.Prng.create 1 in
  let pick () =
    match Redirector.pick red ~spread:1 ~rng ~client () with
    | Some h -> Core.Sim.Net.host_name h
    | None -> Alcotest.fail "no proxy"
  in
  Alcotest.(check string) "before the new link" "near" (pick ());
  Core.Sim.Net.connect net client nearer ~latency:0.001 ~bandwidth:1e7;
  Alcotest.(check string) "after the new link" "nearer" (pick ())

(* Reference: the redirector's pick as a full ranking of the proxy list
   (stable sort by estimate), then the liveness and close-by filters and
   the headroom-weighted draw. [headroom] mirrors the redirector's
   formula for reports that never go stale. *)
let reference_headroom red p =
  match Redirector.health red p with
  | None -> 1.0
  | Some h ->
    let delay_factor = 1.0 /. (1.0 +. (h.Redirector.queue_delay /. 0.1)) in
    let shed_factor = 1.0 -. Float.min 0.95 h.Redirector.shed_rate in
    Float.max 0.02 (delay_factor *. shed_factor)

let reference_ranking net red client =
  List.map
    (fun p -> (Core.Sim.Net.transfer_time_estimate net ~src:client ~dst:p ~size:1024, p))
    (Redirector.proxies red)
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reference_pick net red ~spread ~rng ~client =
  let scored =
    List.filter (fun (_, p) -> not (Core.Sim.Net.host_down net p)) (reference_ranking net red client)
  in
  match scored with
  | [] -> None
  | (best, _) :: _ ->
    let close = List.filter (fun (s, _) -> s <= (best *. 2.0) +. 1e-4) scored in
    let k = max 1 (min spread (List.length close)) in
    let nearest = List.filteri (fun i _ -> i < k) close in
    let weighted = List.map (fun (_, p) -> (reference_headroom red p, p)) nearest in
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let roll = Core.Util.Prng.float rng total in
    let rec choose acc = function
      | [] -> None
      | [ (_, p) ] -> Some p
      | (w, p) :: rest -> if roll < acc +. w then Some p else choose (acc +. w) rest
    in
    choose 0.0 weighted

let redirector_pick_matches_reference_prop =
  QCheck.Test.make ~name:"redirector: pick equals the full-ranking reference on random topologies"
    ~count:300 QCheck.int
    (fun seed ->
      let rng = Core.Util.Prng.create seed in
      let chance n = Core.Util.Prng.int rng n = 0 in
      let sim = Core.Sim.Sim.create () in
      let net = Core.Sim.Net.create sim ~default_latency:0.005 ~default_bandwidth:12_500_000.0 () in
      let n = 1 + Core.Util.Prng.int rng 12 in
      let proxies =
        Array.init n (fun i -> Core.Sim.Net.add_host net ~name:(Printf.sprintf "p%d" i) ())
      in
      let extra = Core.Sim.Net.add_host net ~name:"other" () in
      (* Half the time the client is itself a proxy (estimate 0). *)
      let client =
        if chance 2 then Core.Util.Prng.pick rng proxies
        else Core.Sim.Net.add_host net ~name:"client" ()
      in
      (* Link parameters include the defaults exactly, so explicit links
         tie the default estimate. *)
      let link_params =
        [| (0.0005, 12_500_000.0); (0.005, 12_500_000.0); (0.002, 1e7); (0.05, 12_500_000.0);
           (0.0049, 12_500_000.0) |]
      in
      let connect a b =
        let latency, bandwidth = Core.Util.Prng.pick rng link_params in
        Core.Sim.Net.connect net a b ~latency ~bandwidth
      in
      Array.iter (fun p -> if chance 2 then connect client p) proxies;
      if chance 2 then connect client extra;
      (* Links elsewhere in the topology must not matter. *)
      Array.iter (fun p -> if chance 3 then connect extra p) proxies;
      let red = Redirector.create net in
      let order = Array.copy proxies in
      Core.Util.Prng.shuffle rng order;
      Array.iter (Redirector.add_proxy red) order;
      Redirector.add_proxy red order.(0);
      Array.iter
        (fun p ->
          if chance 4 then
            Redirector.report red p ~incarnation:0
              ~queue_delay:(Core.Util.Prng.float rng 1.0) ~shed_rate:(Core.Util.Prng.float rng 1.0) ())
        proxies;
      (* Crash a random subset, and half the time the nearest proxy. *)
      let plan = Core.Faults.Plan.create () in
      let crash p = Core.Faults.Plan.crash plan ~host:(Core.Sim.Net.host_name p) ~at:0.0 () in
      Array.iter (fun p -> if chance 4 then crash p) proxies;
      (if chance 2 then
         match reference_ranking net red client with (_, p) :: _ -> crash p | [] -> ());
      Core.Sim.Net.set_faults net plan;
      let agree () =
        List.for_all
          (fun spread ->
            let draw = Core.Util.Prng.int rng 1_000_000 in
            let mine = Core.Util.Prng.create draw and theirs = Core.Util.Prng.create draw in
            let name = Option.map Core.Sim.Net.host_name in
            name (Redirector.pick red ~spread ~rng:mine ~client ())
            = name (reference_pick net red ~spread ~rng:theirs ~client)
            (* Same number of draws taken on both sides. *)
            && Core.Util.Prng.int mine max_int = Core.Util.Prng.int theirs max_int)
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let first = agree () in
      (* Remove and re-add proxies (re-registration moves them to the
         front of the list), and link the client anew. *)
      Array.iter
        (fun p ->
          if chance 3 then begin
            Redirector.remove_proxy red p;
            if chance 2 then Redirector.add_proxy red p
          end)
        proxies;
      connect client (Core.Util.Prng.pick rng proxies);
      first && agree ())

(* {1 Ring scaling properties}

   The membership structure went from a re-sorted array to an ordered
   set; these pin the new implementation against a naive reference
   model at memberships up to 2048 nodes. *)

(* Reference model: a plain sorted list. Successor = first element >=
   key, wrapping to the minimum. *)
let ref_successor sorted key =
  match List.find_opt (fun x -> id_compare x key >= 0) sorted with
  | Some _ as s -> s
  | None -> ( match sorted with [] -> None | x :: _ -> Some x)

let ring_of_names n =
  let r = Ring.create () in
  let ids = List.init n (fun i -> Node_id.of_string (Printf.sprintf "scale-node-%d" i)) in
  List.iter (Ring.join r) ids;
  (r, ids)

let ring_successor_matches_reference_prop =
  QCheck.Test.make ~name:"ring: successor agrees with the naive model up to 2048 nodes"
    ~count:30
    QCheck.(pair (int_range 1 2048) (small_list small_int))
    (fun (n, probe_seeds) ->
      let r, ids = ring_of_names n in
      let sorted = List.sort_uniq id_compare ids in
      Alcotest.(check int) "size" (List.length sorted) (List.length (Ring.nodes r));
      let probes =
        Node_id.of_int 0
        :: List.concat_map
             (fun s ->
               [ Node_id.of_string (Printf.sprintf "probe-%d" s);
                 (* On-member probes: successor(member) = member. *)
                 List.nth sorted (abs s mod List.length sorted) ])
             probe_seeds
      in
      List.for_all
        (fun key ->
          match (Ring.successor r key, ref_successor sorted key) with
          | Some a, Some b -> Node_id.equal a b
          | None, None -> true
          | _ -> false)
        probes)

let ring_lookup_path_scales_prop =
  QCheck.Test.make ~name:"ring: greedy paths stay O(log n) up to 2048 nodes" ~count:8
    QCheck.(int_range 16 2048)
    (fun n ->
      let r, ids = ring_of_names n in
      let arr = Array.of_list ids in
      let rng = Core.Util.Prng.create (n * 7 + 1) in
      let total = ref 0 and probes = 50 in
      for i = 0 to probes - 1 do
        let from = Core.Util.Prng.pick rng arr in
        let key = Node_id.of_string (Printf.sprintf "path-key-%d-%d" n i) in
        let path = Ring.lookup_path r ~from ~key in
        total := !total + List.length path;
        (* Every path ends at the key's owner. *)
        (match (Ring.successor r key, List.rev path) with
         | Some owner, last :: _ -> assert (Node_id.equal owner last)
         | Some owner, [] -> assert (Node_id.equal owner from)
         | None, _ -> assert false)
      done;
      let avg = float_of_int !total /. float_of_int probes in
      let log2n = log (float_of_int n) /. log 2.0 in
      (* Greedy finger routing: 2x log2 n plus slack for tiny rings. *)
      avg <= (2.0 *. log2n) +. 4.0)

let ring_churn_prop =
  QCheck.Test.make ~name:"ring: join/leave churn preserves sortedness and membership"
    ~count:50
    QCheck.(list (pair bool (int_range 0 255)))
    (fun ops ->
      let r = Ring.create () in
      let reference = Hashtbl.create 64 in
      let id_of i = Node_id.of_string (Printf.sprintf "churn-%d" i) in
      (* Seed membership, then replay the random join/leave script. *)
      List.iter
        (fun i ->
          Ring.join r (id_of i);
          Hashtbl.replace reference i ())
        [ 0; 1; 2; 3 ];
      List.iter
        (fun (join, i) ->
          if join then begin
            Ring.join r (id_of i);
            Hashtbl.replace reference i ()
          end
          else begin
            Ring.leave r (id_of i);
            Hashtbl.remove reference i
          end)
        ops;
      let expected =
        Hashtbl.fold (fun i () acc -> id_of i :: acc) reference []
        |> List.sort id_compare
      in
      let got = Ring.nodes r in
      let rec sorted_distinct = function
        | a :: (b :: _ as rest) -> id_compare a b < 0 && sorted_distinct rest
        | _ -> true
      in
      List.length (Ring.nodes r) = List.length expected
      && sorted_distinct got
      && List.equal Node_id.equal got expected
      && List.for_all (fun id -> Ring.mem r id) expected)

let test_ring_lookup_path_non_member_raises () =
  let r = Ring.create () in
  List.iter (fun i -> Ring.join r (Node_id.of_int i)) [ 10; 20; 30 ];
  (match Ring.lookup_path r ~from:(Node_id.of_int 15) ~key:(Node_id.of_int 25) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "expected Invalid_argument for a non-member start");
  Alcotest.(check (list int)) "empty ring still routes nowhere" []
    (List.map int_of_id
       (Ring.lookup_path (Ring.create ()) ~from:(Node_id.of_int 15) ~key:(Node_id.of_int 25)))

(* Reference: the greedy route as a scan of all 62 fingers per hop,
   taking the first (farthest) that lands strictly short of the key. *)
let scan_lookup_path r ~from ~key =
  match Ring.successor r key with
  | None -> []
  | Some owner ->
    if Node_id.equal owner from then []
    else begin
      let rec route current acc guard =
        if Node_id.equal current owner || guard = 0 then List.rev acc
        else begin
          let best = ref None in
          for i = 61 downto 0 do
            if !best = None then
              match Ring.successor r (Node_id.of_int ((int_of_id current + (1 lsl i)) land max_int)) with
              | Some f
                when (not (Node_id.equal f current))
                     && distance current f < distance current key
                     && distance current f > 0 ->
                best := Some f
              | _ -> ()
          done;
          let next = Option.value !best ~default:owner in
          route next (next :: acc) (guard - 1)
        end
      in
      route from [] (List.length (Ring.nodes r) + 64)
    end

let ring_lookup_path_matches_scan_prop =
  QCheck.Test.make ~name:"ring: direct-finger paths equal the 62-finger scan up to 2048 nodes"
    ~count:40
    QCheck.(pair (int_range 1 2048) int)
    (fun (n, seed) ->
      let rng = Core.Util.Prng.create seed in
      (* Dense rings (ids below 4096) put members at exact power-of-two
         distances; sparse ones spread over the whole 62-bit space. *)
      let dense = Core.Util.Prng.bool rng in
      let fresh_id () =
        if dense then Node_id.of_int (Core.Util.Prng.int rng 4096)
        else Node_id.of_int (Core.Util.Prng.int rng max_int)
      in
      let r = Ring.create () in
      for _ = 1 to n do
        Ring.join r (fresh_id ())
      done;
      let members = Array.of_list (Ring.nodes r) in
      let near id delta = Node_id.of_int ((int_of_id id + delta) land max_int) in
      List.for_all
        (fun _ ->
          let from = Core.Util.Prng.pick rng members in
          let m = Core.Util.Prng.pick rng members in
          List.for_all
            (fun key ->
              List.equal Node_id.equal (Ring.lookup_path r ~from ~key)
                (scan_lookup_path r ~from ~key))
            [ fresh_id (); m; near m 1; near m (-1); from ])
        (List.init 30 Fun.id))

(* {2 Queries between membership changes}

   The ring answers from a snapshot and a finger table built lazily
   after a change. This replays random joins and leaves interleaved
   with every query against a plain sorted list of ints, routing by a
   scan of all 62 fingers over that list, so a table or snapshot kept
   past a change shows as a wrong answer. *)

(* The model's successor: the first member >= key, wrapping. *)
let model_successor members key =
  match List.find_opt (fun x -> x >= key) members with Some x -> x | None -> List.hd members

let model_route members ~from ~key =
  let owner = model_successor members key in
  let rec route current acc =
    if current = owner then List.rev acc
    else begin
      let best = ref None in
      for i = 61 downto 0 do
        if !best = None then begin
          let f = model_successor members ((current + (1 lsl i)) land max_int) in
          let d = (f - current) land max_int in
          if d > 0 && d < (key - current) land max_int then best := Some f
        end
      done;
      let next = Option.value !best ~default:owner in
      route next (next :: acc)
    end
  in
  if owner = from then [] else route from []

let ring_ops_match_model_prop =
  QCheck.Test.make ~name:"ring: queries between joins and leaves agree with a sorted list"
    ~count:60
    QCheck.(pair int (int_range 1 400))
    (fun (seed, steps) ->
      let rng = Core.Util.Prng.create seed in
      (* Dense ids (below 64) collide and empty the ring often; sparse
         ones spread over the whole 62-bit space. *)
      let dense = Core.Util.Prng.bool rng in
      let fresh () = Core.Util.Prng.int rng (if dense then 64 else max_int) in
      let r = Ring.create () in
      let members = ref [] in
      let agree what expected got =
        if expected <> got then
          QCheck.Test.fail_reportf "%s disagrees at %d members" what (List.length !members)
      in
      let ints ids = List.map int_of_id ids in
      let pick ms = List.nth ms (Core.Util.Prng.int rng (List.length ms)) in
      (* A key at, just before or just after a member, or anywhere. *)
      let key () =
        match !members with
        | _ :: _ as ms when Core.Util.Prng.bool rng ->
          (pick ms + Core.Util.Prng.int rng 3 - 1) land max_int
        | _ -> fresh ()
      in
      for _ = 1 to steps do
        match Core.Util.Prng.int rng 10 with
        | 0 | 1 | 2 | 3 ->
          let id = fresh () in
          Ring.join r (Node_id.of_int id);
          members := List.sort_uniq Int.compare (id :: !members)
        | 4 | 5 ->
          let id = match !members with [] -> fresh () | ms -> pick ms in
          Ring.leave r (Node_id.of_int id);
          members := List.filter (( <> ) id) !members
        | 6 | 7 -> (
          match !members with
          | [] ->
            agree "route on an empty ring" []
              (ints (Ring.lookup_path r ~from:(Node_id.of_int 0) ~key:(Node_id.of_int 0)))
          | ms ->
            let from = pick ms and k = key () in
            agree "lookup_path" (model_route ms ~from ~key:k)
              (ints (Ring.lookup_path r ~from:(Node_id.of_int from) ~key:(Node_id.of_int k))))
        | 8 ->
          let k = key () in
          agree "successor"
            (match !members with [] -> None | ms -> Some (model_successor ms k))
            (Option.map int_of_id (Ring.successor r (Node_id.of_int k)))
        | _ ->
          let k = key () and n = Core.Util.Prng.int rng 4 in
          let expected =
            match !members with
            | [] -> []
            | ms ->
              let arr = Array.of_list ms in
              let len = Array.length arr in
              let owner = model_successor ms k in
              let start = List.length (List.filter (fun x -> x < owner) ms) in
              List.init (min n len) (fun j -> arr.((start + j) mod len))
          in
          agree "successors" expected (ints (Ring.successors r (Node_id.of_int k) ~k:n))
      done;
      true)

(* What copying a list of [n] elements allocates: [n] cons cells. *)
let cons_cells n =
  let l = List.init n Fun.id in
  snd (Alloc.gc_allocated (fun () -> List.map Fun.id l))

(* A route reads the finger table and allocates nothing but the path
   it returns: one cons cell per hop. *)
let test_ring_lookup_path_allocates_its_path () =
  let r, ids = ring_of_names 1000 in
  let members = Array.of_list ids in
  (* The first route builds the snapshot and the finger table. *)
  ignore (Ring.lookup_path r ~from:members.(0) ~key:members.(1));
  for i = 0 to 199 do
    let from = members.(i * 5) and key = Node_id.of_string (Printf.sprintf "alloc-key-%d" i) in
    let path, allocated = Alloc.gc_allocated (fun () -> Ring.lookup_path r ~from ~key) in
    Alcotest.(check (float 0.0)) "one cons cell per hop" (cons_cells (List.length path)) allocated
  done

let test_ring_successors () =
  let r = Ring.create () in
  List.iter (fun i -> Ring.join r (Node_id.of_int i)) [ 10; 20; 30 ];
  let ints key k = List.map int_of_id (Ring.successors r (Node_id.of_int key) ~k) in
  Alcotest.(check (list int)) "owner plus successors" [ 20; 30 ] (ints 15 2);
  Alcotest.(check (list int)) "wraps" [ 30; 10 ] (ints 25 2);
  Alcotest.(check (list int)) "clamps to ring size" [ 10; 20; 30 ] (ints 5 7);
  Alcotest.(check (list int)) "k=1 is the owner" [ 20 ] (ints 20 1);
  Alcotest.(check (list int)) "k=0 is empty" [] (ints 15 0);
  Alcotest.(check (list int)) "negative k is empty" [] (ints 15 (-1));
  Alcotest.(check (list int)) "empty ring" []
    (List.map int_of_id (Ring.successors (Ring.create ()) (Node_id.of_int 1) ~k:2))

(* {1 Hotspot detection and sloppy replication} *)

(* A DHT with [n] nodes, hotspots enabled, one announced key, and the
   name->id mapping the assertions need. *)
let hot_dht ?(n = 24) ?(threshold = 5.0) ?(replicas = 3) ?(ttl = 30.0) () =
  let dht = Dht.create () in
  let names = List.init n (fun i -> Printf.sprintf "edge-%02d" i) in
  let ids = List.map (fun name -> (name, Dht.join dht name)) names in
  Dht.set_hotspots dht ~halflife:10.0 ~threshold ~replicas ~ttl ();
  (dht, names, ids)

let name_of ids id = fst (List.find (fun (_, i) -> Node_id.equal i id) ids)

(* Hammer [key] with reads from every node, advancing the clock by
   [dt] per read; returns the final clock. *)
let crowd dht names ~key ~from_t ~dt ~rounds ~check =
  let now = ref from_t in
  for _ = 1 to rounds do
    List.iter
      (fun from ->
        now := !now +. dt;
        check (Dht.get dht ~now:!now ~from ~key))
      names
  done;
  !now

let test_hotspot_replicated_reads_identical () =
  (* Crowd a key: replication must trigger, sloppy hits must occur, and
     every read — served by owner, replica set, or sloppy holder — must
     return bit-identical values. *)
  let dht, names, _ = hot_dht () in
  let key = "GET http://popular.example/front" in
  ignore (Dht.put dht ~now:0.0 ~from:(List.hd names) ~key ~value:"holder-A" ~ttl:3600.0);
  let m = Dht.metrics dht in
  let _ =
    crowd dht names ~key ~from_t:0.0 ~dt:0.01 ~rounds:8 ~check:(fun l ->
        Alcotest.(check (list string)) "bit-identical values" [ "holder-A" ] l.Dht.values)
  in
  Alcotest.(check bool) "replication triggered" true
    (Core.Telemetry.Metrics.counter m "dht.hotspot_replications" > 0);
  Alcotest.(check bool) "sloppy holders served lookups" true
    (Core.Telemetry.Metrics.counter m "dht.sloppy_hits" > 0);
  Alcotest.(check bool) "key listed hot" true
    (List.exists (fun (k, _) -> k = key) (Dht.hotspots dht ~now:2.0));
  (* Write-through: a new announcement under the hot key is visible in
     every subsequent read, sloppy or not. *)
  ignore (Dht.put dht ~now:2.0 ~from:(List.nth names 3) ~key ~value:"holder-B" ~ttl:3600.0);
  let _ =
    crowd dht names ~key ~from_t:2.0 ~dt:0.01 ~rounds:2 ~check:(fun l ->
        Alcotest.(check (list string)) "write-through" [ "holder-B"; "holder-A" ] l.Dht.values)
  in
  ()

(* A put whose four targets (the key's owner, its successor and two
   sloppy holders) hold one physical entry list builds the new list
   once: each further live entry adds one cons cell to what the put
   allocates, not one per target. *)
let test_dht_put_builds_one_list () =
  let dht, names, _ = hot_dht ~threshold:2.0 ~replicas:2 ~ttl:3600.0 () in
  let key = "GET http://popular.example/shared" in
  let from = List.hd names in
  let put i =
    let value = Printf.sprintf "v%02d" i in
    Alloc.gc_allocated (fun () -> Dht.put dht ~now:100.0 ~from ~key ~value ~ttl:3600.0)
  in
  ignore (put 0);
  let _ = crowd dht names ~key ~from_t:0.0 ~dt:0.01 ~rounds:4 ~check:ignore in
  Alcotest.(check int) "placement active" 1 (Dht.sloppy_replicas dht);
  (* Put [i] finds [i] live entries and stores [i + 1]. *)
  let allocated = Array.init 16 (fun i -> if i = 0 then 0.0 else snd (put i)) in
  Alcotest.(check (float 0.0)) "one cons cell per entry"
    (cons_cells 6 -. cons_cells 0)
    (allocated.(15) -. allocated.(9))

let test_hotspot_replicas_expire () =
  (* Replicas are soft state: after the TTL with no sweep-triggering
     traffic, the ring reconverges to the no-replica equilibrium. *)
  let dht, names, _ = hot_dht ~ttl:10.0 () in
  let key = "GET http://flash.example/crowd" in
  ignore (Dht.put dht ~now:0.0 ~from:(List.hd names) ~key ~value:"v" ~ttl:3600.0);
  let t = crowd dht names ~key ~from_t:0.0 ~dt:0.01 ~rounds:8 ~check:ignore in
  Alcotest.(check bool) "placement active" true (Dht.sloppy_replicas dht > 0);
  (* The crowd moves on; past the TTL a sweep expires the placement. *)
  Dht.sweep dht ~now:(t +. 11.0);
  Alcotest.(check int) "placements expired" 0 (Dht.sloppy_replicas dht);
  Alcotest.(check (float 0.1)) "hotspots gauge reconverged" 0.0
    (Core.Telemetry.Metrics.gauge (Dht.metrics dht) "dht.hotspots");
  (* Decay also empties the hot list: the rate estimator halves every
     10 s (hot_dht's halflife), so minutes later nothing is hot. *)
  Alcotest.(check (list (pair string (float 1e9)))) "no hot keys" []
    (Dht.hotspots dht ~now:(t +. 600.0));
  (* And reads still work — served by the owner again. *)
  let l = Dht.get dht ~now:(t +. 11.5) ~from:(List.nth names 5) ~key in
  Alcotest.(check (list string)) "owner still serves" [ "v" ] l.Dht.values

let test_hotspot_crashed_holder_falls_back () =
  (* One arm under an nk_faults chaos plan: crash every node except
     the key's owner and the reader mid-run. Sloppy holders die with
     the rest; reads must fall back to the owner, bit-identically. *)
  let dht, names, ids = hot_dht ~n:16 ~threshold:2.0 () in
  let key = "GET http://fragile.example/hot" in
  ignore (Dht.put dht ~now:0.0 ~from:(List.hd names) ~key ~value:"gold" ~ttl:3600.0);
  let owner =
    match (Dht.get dht ~now:0.0 ~from:(List.hd names) ~key).Dht.owner with
    | Some id -> name_of ids id
    | None -> Alcotest.fail "key has an owner"
  in
  let reader = List.find (fun n -> n <> owner) names in
  let crash_at = 1.0 in
  let plan = Core.Faults.Plan.create () in
  List.iter
    (fun n -> if n <> owner && n <> reader then Core.Faults.Plan.crash plan ~host:n ~at:crash_at ())
    names;
  (* Mirror the cluster wiring: DHT liveness follows the fault plan. *)
  let now = ref 0.0 in
  Dht.set_liveness dht (fun n -> not (Core.Faults.Plan.is_down plan ~now:!now n));
  (* Crowd the key before the crash so sloppy holders exist. *)
  let t = crowd dht names ~key ~from_t:0.0 ~dt:0.002 ~rounds:8 ~check:ignore in
  Alcotest.(check bool) "holders placed pre-crash" true (Dht.sloppy_replicas dht > 0);
  let hits_before = Core.Telemetry.Metrics.counter (Dht.metrics dht) "dht.sloppy_hits" in
  Alcotest.(check bool) "crash hits after the warm-up crowd" true (t < crash_at);
  (* After the crash, only owner and reader live: every read from the
     reader must skip dead holders and reach the owner. *)
  now := crash_at +. 0.5;
  for i = 1 to 50 do
    now := !now +. 0.01;
    let l = Dht.get dht ~now:!now ~from:reader ~key in
    Alcotest.(check (list string)) (Printf.sprintf "read %d falls back to owner" i)
      [ "gold" ] l.Dht.values
  done;
  ignore hits_before

(* {1 Keys hashed once against the string-keyed reference} *)

type dht_op =
  | Put of int * int * int
  | Get of int * int
  | Replicas of int
  | Crash of int
  | Tick of int
  | Sweep

let print_dht_op = function
  | Put (f, k, ttl) -> Printf.sprintf "Put(%d,%d,%d)" f k ttl
  | Get (f, k) -> Printf.sprintf "Get(%d,%d)" f k
  | Replicas k -> Printf.sprintf "Replicas %d" k
  | Crash f -> Printf.sprintf "Crash %d" f
  | Tick n -> Printf.sprintf "Tick %d" n
  | Sweep -> "Sweep"

type dht_impl = {
  put : now:float -> from:string -> key:int -> ttl:float -> int;
  get : now:float -> from:string -> key:int -> string list * int * int * int option;
  replicas : key:int -> string list;
  sweep : now:float -> unit;
  hot : now:float -> (string * float) list * int;
}

let dht_key_strings = Array.init 6 (Printf.sprintf "GET http://site.org/object-%d")

let reference_dht ~hot ~live names =
  let module R = Reference_substrate.Dht in
  let dht = R.create () in
  Array.iter (fun n -> ignore (R.join dht n)) names;
  R.set_liveness dht live;
  if hot then R.set_hotspots dht ~halflife:2.0 ~threshold:0.5 ~replicas:2 ~ttl:5.0 ();
  let key i = dht_key_strings.(i) in
  {
    put = (fun ~now ~from ~key:k ~ttl -> R.put dht ~now ~from ~key:(key k) ~value:from ~ttl);
    get =
      (fun ~now ~from ~key:k ->
        let l = R.get dht ~now ~from ~key:(key k) in
        (l.R.values, l.R.hops, l.R.fallbacks, Option.map int_of_id l.R.owner));
    replicas = (fun ~key:k -> R.replica_names dht ~key:(key k));
    sweep = (fun ~now -> R.sweep dht ~now);
    hot = (fun ~now -> (R.hotspots dht ~now, R.sloppy_replicas dht));
  }

(* Each key is hashed once, up front, and reused by every operation. *)
let keyed_dht ~hot ~live names =
  let dht = Dht.create () in
  Array.iter (fun n -> ignore (Dht.join dht n)) names;
  Dht.set_liveness dht live;
  if hot then Dht.set_hotspots dht ~halflife:2.0 ~threshold:0.5 ~replicas:2 ~ttl:5.0 ();
  let keys = Array.map Dht.Key.of_string dht_key_strings in
  {
    put = (fun ~now ~from ~key ~ttl -> Dht.put_key dht ~now ~from ~key:keys.(key) ~value:from ~ttl);
    get =
      (fun ~now ~from ~key ->
        let l = Dht.get_key dht ~now ~from ~key:keys.(key) in
        (l.Dht.values, l.Dht.hops, l.Dht.fallbacks, Option.map int_of_id l.Dht.owner));
    replicas = (fun ~key -> Dht.replica_names dht ~key:keys.(key));
    sweep = (fun ~now -> Dht.sweep dht ~now);
    hot = (fun ~now -> (Dht.hotspots dht ~now, Dht.sloppy_replicas dht));
  }

type dht_obs =
  | Hops of int
  | Found of string list * int * int * int option
  | Names of string list
  | Hot of ((string * float) list * int)

let dht_trace make ~n ~hot ops =
  let names = Array.init n (Printf.sprintf "edge-%02d") in
  let down = Hashtbl.create 4 in
  let impl = make ~hot ~live:(fun name -> not (Hashtbl.mem down name)) names in
  let now = ref 0.0 in
  List.map
    (fun op ->
      match op with
      | Put (f, k, ttl) ->
        Hops (impl.put ~now:!now ~from:names.(f mod n) ~key:k ~ttl:(float_of_int ttl))
      | Get (f, k) ->
        let values, hops, fallbacks, owner = impl.get ~now:!now ~from:names.(f mod n) ~key:k in
        Found (values, hops, fallbacks, owner)
      | Replicas k -> Names (impl.replicas ~key:k)
      | Crash f ->
        let name = names.(f mod n) in
        if Hashtbl.mem down name then Hashtbl.remove down name else Hashtbl.replace down name ();
        Hot (impl.hot ~now:!now)
      | Tick t ->
        now := !now +. (0.25 *. float_of_int t);
        Hot (impl.hot ~now:!now)
      | Sweep ->
        impl.sweep ~now:!now;
        Hot (impl.hot ~now:!now))
    ops

let dht_key_matches_reference_prop =
  let key = QCheck.Gen.int_bound (Array.length dht_key_strings - 1) in
  let node = QCheck.Gen.int_bound 31 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map3 (fun f k ttl -> Put (f, k, ttl)) node key (int_range 1 8));
          (6, map2 (fun f k -> Get (f, k)) node key);
          (1, map (fun k -> Replicas k) key);
          (1, map (fun f -> Crash f) node);
          (2, map (fun t -> Tick t) (int_bound 8));
          (1, return Sweep);
        ])
  in
  QCheck.Test.make ~name:"dht: Key operations equal the string-keyed reference" ~count:200
    (QCheck.make
       ~print:
         QCheck.Print.(triple int bool (list print_dht_op))
       QCheck.Gen.(triple (int_range 2 24) bool (list_size (int_bound 150) op)))
    (fun (n, hot, ops) -> dht_trace reference_dht ~n ~hot ops = dht_trace keyed_dht ~n ~hot ops)

let suite =
  [
    Alcotest.test_case "node ids are deterministic" `Quick test_node_id_deterministic;
    Alcotest.test_case "ring distance" `Quick test_ring_distance;
    Alcotest.test_case "ring membership" `Quick test_ring_membership;
    Alcotest.test_case "ring successor" `Quick test_ring_successor;
    Alcotest.test_case "lookup paths terminate at the owner" `Quick
      test_ring_lookup_path_terminates;
    Alcotest.test_case "greedy routing is O(log n)" `Quick test_ring_lookup_log_hops;
    Alcotest.test_case "dht: put/get across nodes" `Quick test_dht_put_get;
    Alcotest.test_case "dht: soft state expires" `Quick test_dht_ttl_expiry;
    Alcotest.test_case "dht: multiple announcements coexist" `Quick test_dht_multiple_values;
    Alcotest.test_case "dht: re-announcement refreshes" `Quick test_dht_reannounce_dedupes;
    Alcotest.test_case "dht: per-key value cap" `Quick test_dht_value_cap;
    Alcotest.test_case "dht: unjoined sender rejected" `Quick test_dht_unjoined_put_raises;
    Alcotest.test_case "dht: churn with re-announcement" `Quick test_dht_survives_churn;
    Alcotest.test_case "dht: lookups fall back around a crashed replica" `Quick
      test_dht_lookup_under_churn;
    Alcotest.test_case "ring: consistent ownership from all nodes" `Quick
      test_ring_lookup_consistent_across_nodes;
    QCheck_alcotest.to_alcotest dht_soft_state_prop;
    Alcotest.test_case "redirector: picks nearest proxy" `Quick test_redirector_nearest;
    Alcotest.test_case "redirector: spread balances load" `Quick test_redirector_spread;
    Alcotest.test_case "redirector: empty pool" `Quick test_redirector_empty;
    Alcotest.test_case "redirector: remove proxy" `Quick test_redirector_remove;
    Alcotest.test_case "redirector: spread clamps to the pool" `Quick
      test_redirector_spread_clamped;
    Alcotest.test_case "redirector: crashed proxies are never picked" `Quick
      test_redirector_skips_crashed;
    Alcotest.test_case "redirector: headroom weighting avoids saturated nodes" `Quick
      test_redirector_health_weighting;
    Alcotest.test_case "redirector: stale incarnation reports ignored" `Quick
      test_redirector_incarnation_guard;
    Alcotest.test_case "redirector: silent nodes age out of rotation" `Quick
      test_redirector_staleness_bound;
    Alcotest.test_case "redirector: links made after a pick take effect" `Quick
      test_redirector_link_after_pick;
    QCheck_alcotest.to_alcotest redirector_pick_matches_reference_prop;
    QCheck_alcotest.to_alcotest ring_successor_matches_reference_prop;
    QCheck_alcotest.to_alcotest ring_lookup_path_scales_prop;
    Alcotest.test_case "ring: lookup from a non-member raises" `Quick
      test_ring_lookup_path_non_member_raises;
    QCheck_alcotest.to_alcotest ring_lookup_path_matches_scan_prop;
    QCheck_alcotest.to_alcotest ring_ops_match_model_prop;
    QCheck_alcotest.to_alcotest ring_churn_prop;
    Alcotest.test_case "ring: successor sets" `Quick test_ring_successors;
    Alcotest.test_case "ring: lookup_path allocates only its path" `Quick
      test_ring_lookup_path_allocates_its_path;
    QCheck_alcotest.to_alcotest dht_key_matches_reference_prop;
    Alcotest.test_case "dht: a put to one shared list builds it once" `Quick
      test_dht_put_builds_one_list;
    Alcotest.test_case "hotspot: replicated reads are bit-identical" `Quick
      test_hotspot_replicated_reads_identical;
    Alcotest.test_case "hotspot: replicas expire and the ring reconverges" `Quick
      test_hotspot_replicas_expire;
    Alcotest.test_case "hotspot: crashed holders fall back to the owner (chaos plan)" `Quick
      test_hotspot_crashed_holder_falls_back;
  ]
