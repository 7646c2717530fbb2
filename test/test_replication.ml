(* Hard state (§3.3): per-site stores with quotas, the reliable message
   bus, and script-style replication with conflict resolution. *)

open Core.Replication

let test_store_basic () =
  let s = Store.create () in
  Alcotest.(check bool) "put" true (Store.put s ~site:"a.org" ~key:"k" "v");
  Alcotest.(check (option string)) "get" (Some "v") (Store.get s ~site:"a.org" ~key:"k")

let test_store_site_partitioning () =
  let s = Store.create () in
  ignore (Store.put s ~site:"a.org" ~key:"k" "for-a");
  ignore (Store.put s ~site:"b.org" ~key:"k" "for-b");
  Alcotest.(check (option string)) "a sees a" (Some "for-a") (Store.get s ~site:"a.org" ~key:"k");
  Alcotest.(check (option string)) "b sees b" (Some "for-b") (Store.get s ~site:"b.org" ~key:"k")

(* [n] MiB of [c]: each site's quota is 16 MiB. *)
let mib ?(c = 'x') n = String.make (n * 1024 * 1024) c

let test_store_quota () =
  let s = Store.create () in
  Alcotest.(check bool) "fits" true (Store.put s ~site:"a" ~key:"k1" (mib 10));
  Alcotest.(check bool) "over quota" false (Store.put s ~site:"a" ~key:"k2" (mib 10));
  Alcotest.(check (option string)) "rejected write absent" None (Store.get s ~site:"a" ~key:"k2");
  (* Quota is per site. *)
  Alcotest.(check bool) "other site unaffected" true (Store.put s ~site:"b" ~key:"k" (mib 10))

let test_store_overwrite_counts_delta () =
  let s = Store.create () in
  ignore (Store.put s ~site:"a" ~key:"k" (mib 10));
  Alcotest.(check bool) "same-size overwrite fits" true
    (Store.put s ~site:"a" ~key:"k" (mib ~c:'y' 10));
  Alcotest.(check bool) "grow elsewhere refused" false (Store.put s ~site:"a" ~key:"k2" (mib 12));
  Alcotest.(check bool) "shrink then grow elsewhere" true
    (Store.put s ~site:"a" ~key:"k" "small");
  Alcotest.(check bool) "freed space reusable" true (Store.put s ~site:"a" ~key:"k2" (mib 12))

let test_store_keys_prefix () =
  let s = Store.create () in
  ignore (Store.put s ~site:"a" ~key:"user:1" "x");
  ignore (Store.put s ~site:"a" ~key:"user:2" "y");
  ignore (Store.put s ~site:"a" ~key:"log:1" "z");
  Alcotest.(check (list string)) "prefix" [ "user:1"; "user:2" ] (Store.keys s ~site:"a" ~prefix:"user:")

let with_bus n_nodes f =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let bus = Message_bus.create net in
  let hosts =
    List.init n_nodes (fun i -> Core.Sim.Net.add_host net ~name:(Printf.sprintf "n%d" i) ())
  in
  f sim bus hosts

let test_bus_delivery () =
  with_bus 3 (fun sim bus hosts ->
      let received = ref [] in
      List.iteri
        (fun i host ->
          let name = Printf.sprintf "n%d" i in
          Message_bus.attach bus ~name ~host;
          Message_bus.subscribe bus ~name ~topic:"t" ~handler:(fun ~payload ~from ->
              received := (name, from, payload) :: !received))
        hosts;
      Message_bus.publish bus ~from:"n0" ~topic:"t" ~payload:"hello";
      Core.Sim.Sim.run sim;
      let got = List.sort compare !received in
      Alcotest.(check (list (triple string string string))) "other two receive"
        [ ("n1", "n0", "hello"); ("n2", "n0", "hello") ]
        got;
      Alcotest.(check int) "delivered count" 2
        (Core.Telemetry.Metrics.counter (Message_bus.metrics bus) "bus.delivered"))

let test_bus_topic_filtering () =
  with_bus 2 (fun sim bus hosts ->
      let received = ref 0 in
      List.iteri
        (fun i host ->
          let name = Printf.sprintf "n%d" i in
          Message_bus.attach bus ~name ~host)
        hosts;
      Message_bus.subscribe bus ~name:"n1" ~topic:"interesting"
        ~handler:(fun ~payload:_ ~from:_ -> incr received);
      Message_bus.publish bus ~from:"n0" ~topic:"boring" ~payload:"x";
      Message_bus.publish bus ~from:"n0" ~topic:"interesting" ~payload:"y";
      Core.Sim.Sim.run sim;
      Alcotest.(check int) "only subscribed topic" 1 !received)

let test_bus_in_order_per_sender () =
  with_bus 2 (fun sim bus hosts ->
      let received = ref [] in
      List.iteri
        (fun i host ->
          let name = Printf.sprintf "n%d" i in
          Message_bus.attach bus ~name ~host;
          Message_bus.subscribe bus ~name ~topic:"t" ~handler:(fun ~payload ~from:_ ->
              received := payload :: !received))
        hosts;
      for i = 1 to 20 do
        Message_bus.publish bus ~from:"n0" ~topic:"t" ~payload:(string_of_int i)
      done;
      Core.Sim.Sim.run sim;
      Alcotest.(check (list string)) "in order"
        (List.init 20 (fun i -> string_of_int (i + 1)))
        (List.rev !received))

let test_bus_unattached_publish_raises () =
  with_bus 1 (fun _sim bus _hosts ->
      match Message_bus.publish bus ~from:"ghost" ~topic:"t" ~payload:"x" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")

let make_replicas n =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let bus = Message_bus.create net in
  let nodes =
    List.init n (fun i ->
        let name = Printf.sprintf "edge%d" i in
        let host = Core.Sim.Net.add_host net ~name () in
        Replication.attach ~bus ~name ~host ~store:(Store.create ()) ~site:"a.org"
          Replication.Optimistic)
  in
  (sim, nodes)

let test_replication_propagates () =
  let sim, nodes = make_replicas 3 in
  let n0 = List.nth nodes 0 in
  Alcotest.(check bool) "accepted" true (Replication.update n0 ~key:"k" ~value:"v1");
  Core.Sim.Sim.run sim;
  List.iteri
    (fun i node ->
      Alcotest.(check (option string)) (Printf.sprintf "replica %d" i) (Some "v1")
        (Replication.read node ~key:"k"))
    nodes

let test_replication_last_writer_wins () =
  let sim, nodes = make_replicas 2 in
  let a = List.nth nodes 0 and b = List.nth nodes 1 in
  ignore (Replication.update a ~key:"k" ~value:"from-a");
  Core.Sim.Sim.run sim;
  ignore (Replication.update b ~key:"k" ~value:"from-b");
  Core.Sim.Sim.run sim;
  Alcotest.(check (option string)) "a converged" (Some "from-b") (Replication.read a ~key:"k");
  Alcotest.(check (option string)) "b converged" (Some "from-b") (Replication.read b ~key:"k")

let test_replication_concurrent_updates_converge () =
  let sim, nodes = make_replicas 2 in
  let a = List.nth nodes 0 and b = List.nth nodes 1 in
  (* Concurrent: both update before any delivery. *)
  ignore (Replication.update a ~key:"k" ~value:"from-a");
  ignore (Replication.update b ~key:"k" ~value:"from-b");
  Core.Sim.Sim.run sim;
  let va = Replication.read a ~key:"k" in
  let vb = Replication.read b ~key:"k" in
  Alcotest.(check bool) "converged to one winner" true (va = vb && va <> None)

let test_replication_delete_tombstones () =
  let sim, nodes = make_replicas 2 in
  let a = List.nth nodes 0 and b = List.nth nodes 1 in
  ignore (Replication.update a ~key:"k" ~value:"v");
  Core.Sim.Sim.run sim;
  Replication.delete b ~key:"k";
  Core.Sim.Sim.run sim;
  Alcotest.(check (option string)) "deleted everywhere" None (Replication.read a ~key:"k");
  Alcotest.(check (list string)) "keys exclude tombstones" [] (Replication.keys a ~prefix:"")

let make_primary_group n =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  let bus = Message_bus.create net in
  let nodes =
    List.init n (fun i ->
        let name = Printf.sprintf "edge%d" i in
        let host = Core.Sim.Net.add_host net ~name () in
        Replication.attach ~bus ~name ~host ~store:(Store.create ()) ~site:"a.org"
          (Replication.Primary "edge0"))
  in
  (sim, nodes)

let test_primary_routes_through_primary () =
  let sim, nodes = make_primary_group 3 in
  let replica = List.nth nodes 2 in
  (* A write at a non-primary replica is forwarded, serialized by the
     primary, and broadcast back to everyone. *)
  Alcotest.(check bool) "accepted" true (Replication.update replica ~key:"k" ~value:"v");
  (* Before delivery the writing replica has not applied it locally. *)
  Alcotest.(check (option string)) "not yet applied locally" None
    (Replication.read replica ~key:"k");
  Core.Sim.Sim.run sim;
  List.iteri
    (fun i node ->
      Alcotest.(check (option string)) (Printf.sprintf "replica %d converged" i) (Some "v")
        (Replication.read node ~key:"k"))
    nodes

let test_primary_serializes_concurrent_writes () =
  (* Two replicas write concurrently; the primary imposes one order and
     every replica ends with the same winner — no split-brain. *)
  let sim, nodes = make_primary_group 3 in
  let r1 = List.nth nodes 1 and r2 = List.nth nodes 2 in
  ignore (Replication.update r1 ~key:"k" ~value:"from-1");
  ignore (Replication.update r2 ~key:"k" ~value:"from-2");
  Core.Sim.Sim.run sim;
  let views = List.map (fun n -> Replication.read n ~key:"k") nodes in
  (match views with
   | first :: rest ->
     Alcotest.(check bool) "some winner" true (first <> None);
     List.iter (fun v -> Alcotest.(check bool) "all agree" true (v = first)) rest
   | [] -> Alcotest.fail "no nodes");
  (* The order is the primary's arrival order, deterministic in the
     simulator: the first proposal wins the first version but the
     second overwrites it — last arrival at the primary is final. *)
  Alcotest.(check bool) "primary's serialization applied" true
    (List.hd views = Some "from-2" || List.hd views = Some "from-1")

let test_primary_write_at_primary_is_immediate () =
  let sim, nodes = make_primary_group 2 in
  let primary = List.hd nodes in
  ignore (Replication.update primary ~key:"k" ~value:"direct");
  Alcotest.(check (option string)) "applied immediately at primary" (Some "direct")
    (Replication.read primary ~key:"k");
  Core.Sim.Sim.run sim;
  Alcotest.(check (option string)) "replicated" (Some "direct")
    (Replication.read (List.nth nodes 1) ~key:"k")

(* --- fault injection: partitions, retries, anti-entropy -------------- *)

let with_faulty_bus plan f =
  let sim = Core.Sim.Sim.create () in
  let net = Core.Sim.Net.create sim () in
  Core.Sim.Net.set_faults net plan;
  let bus = Message_bus.create net in
  let hosts = List.init 2 (fun i -> Core.Sim.Net.add_host net ~name:(Printf.sprintf "n%d" i) ()) in
  f sim bus hosts

let attach_pair bus hosts =
  List.mapi
    (fun i host ->
      Replication.attach ~bus ~name:(Printf.sprintf "n%d" i) ~host ~store:(Store.create ())
        ~site:"s.org" Replication.Optimistic)
    hosts

let test_partition_convergence_via_retries () =
  (* A 5 s partition sits inside the bus's ~31 s retry budget: writes
     made on both sides during the partition converge after heal with
     zero dead letters. *)
  let sim0 = Core.Sim.Sim.create () in
  let t0 = Core.Sim.Sim.now sim0 in
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.partition plan ~a:[ "n0" ] ~b:[ "n1" ] ~at:(t0 +. 1.0) ~heal:(t0 +. 6.0);
  with_faulty_bus plan (fun sim bus hosts ->
      match attach_pair bus hosts with
      | [ r0; r1 ] ->
        Core.Sim.Sim.schedule_at sim (t0 +. 2.0) (fun () ->
            ignore (Replication.update r0 ~key:"left" ~value:"from-n0");
            ignore (Replication.update r1 ~key:"right" ~value:"from-n1"));
        (* Retry timers are daemon events: drive the clock explicitly. *)
        Core.Sim.Sim.run ~until:(t0 +. 60.0) sim;
        List.iteri
          (fun i r ->
            Alcotest.(check (option string))
              (Printf.sprintf "n%d sees left" i) (Some "from-n0")
              (Replication.read r ~key:"left");
            Alcotest.(check (option string))
              (Printf.sprintf "n%d sees right" i) (Some "from-n1")
              (Replication.read r ~key:"right"))
          [ r0; r1 ];
        Alcotest.(check int) "no dead letters after quiescence" 0
          (Core.Telemetry.Metrics.counter (Message_bus.metrics bus) "bus.dead_letters")
      | _ -> Alcotest.fail "expected two replicas")

let test_long_partition_anti_entropy_recovery () =
  (* A 49 s partition outlasts the bus's ~31 s retry budget and
     dead-letters the broadcast; the 30 s anti-entropy cycle converges
     the far side anyway once the partition heals. *)
  let sim0 = Core.Sim.Sim.create () in
  let t0 = Core.Sim.Sim.now sim0 in
  let plan = Core.Faults.Plan.create () in
  Core.Faults.Plan.partition plan ~a:[ "n0" ] ~b:[ "n1" ] ~at:(t0 +. 1.0) ~heal:(t0 +. 50.0);
  with_faulty_bus plan (fun sim bus hosts ->
      match attach_pair bus hosts with
      | [ r0; r1 ] ->
        Replication.start_anti_entropy r0;
        Core.Sim.Sim.schedule_at sim (t0 +. 2.0) (fun () ->
            ignore (Replication.update r0 ~key:"k" ~value:"survives"));
        Core.Sim.Sim.run ~until:(t0 +. 100.0) sim;
        Alcotest.(check bool) "the partition exhausted the retry budget" true
          (Core.Telemetry.Metrics.counter (Message_bus.metrics bus) "bus.dead_letters" > 0);
        Alcotest.(check (option string)) "anti-entropy converged the far side"
          (Some "survives") (Replication.read r1 ~key:"k")
      | _ -> Alcotest.fail "expected two replicas")

let replication_convergence_prop =
  QCheck.Test.make ~name:"replication: all replicas converge after quiescence" ~count:50
    QCheck.(pair (int_range 2 5) (small_list (pair (int_range 0 4) (int_range 0 100))))
    (fun (n, writes) ->
      let sim, nodes = make_replicas n in
      let arr = Array.of_list nodes in
      List.iter
        (fun (who, v) ->
          ignore
            (Replication.update arr.(who mod n) ~key:"k" ~value:(string_of_int v)))
        writes;
      Core.Sim.Sim.run sim;
      let views = List.map (fun node -> Replication.read node ~key:"k") nodes in
      match views with
      | [] -> true
      | first :: rest -> List.for_all (fun v -> v = first) rest)

(* The bus keeps nothing of a settled message: after the retained
   backlog fills, a few thousand more acked deliveries leave its
   footprint where it was. *)
let test_bus_forgets_settled_messages () =
  with_bus 2 (fun sim bus hosts ->
      List.iteri
        (fun i host -> Message_bus.attach bus ~name:(Printf.sprintf "n%d" i) ~host)
        hosts;
      let delivered = ref 0 in
      Message_bus.subscribe bus ~name:"n1" ~topic:"t" ~handler:(fun ~payload:_ ~from:_ ->
          incr delivered);
      let publish n =
        for _ = 1 to n do
          Message_bus.publish bus ~from:"n0" ~topic:"t" ~payload:"update";
          Core.Sim.Sim.run sim
        done
      in
      publish 200;
      let before = Obj.reachable_words (Obj.repr bus) in
      publish 3000;
      let after = Obj.reachable_words (Obj.repr bus) in
      Alcotest.(check int) "every message delivered once" 3200 !delivered;
      Alcotest.(check int) "every message acked, none retried" 0
        (Core.Telemetry.Metrics.counter (Message_bus.metrics bus) "bus.retries");
      if after - before > 256 then
        Alcotest.failf "bus grew by %d words over 3000 settled messages" (after - before))

let suite =
  [
    Alcotest.test_case "store: basic operations" `Quick test_store_basic;
    Alcotest.test_case "store: per-site partitioning" `Quick test_store_site_partitioning;
    Alcotest.test_case "store: quota enforcement" `Quick test_store_quota;
    Alcotest.test_case "store: overwrites account the delta" `Quick
      test_store_overwrite_counts_delta;
    Alcotest.test_case "store: prefix key listing" `Quick test_store_keys_prefix;
    Alcotest.test_case "bus: delivery to all subscribers" `Quick test_bus_delivery;
    Alcotest.test_case "bus: topic filtering" `Quick test_bus_topic_filtering;
    Alcotest.test_case "bus: per-sender ordering" `Quick test_bus_in_order_per_sender;
    Alcotest.test_case "bus: unattached sender rejected" `Quick
      test_bus_unattached_publish_raises;
    Alcotest.test_case "replication: updates propagate" `Quick test_replication_propagates;
    Alcotest.test_case "replication: last writer wins" `Quick test_replication_last_writer_wins;
    Alcotest.test_case "replication: concurrent updates converge" `Quick
      test_replication_concurrent_updates_converge;
    Alcotest.test_case "replication: deletes replicate" `Quick
      test_replication_delete_tombstones;
    Alcotest.test_case "primary: writes route through the primary" `Quick
      test_primary_routes_through_primary;
    Alcotest.test_case "primary: concurrent writes serialize" `Quick
      test_primary_serializes_concurrent_writes;
    Alcotest.test_case "primary: primary writes are immediate" `Quick
      test_primary_write_at_primary_is_immediate;
    Alcotest.test_case "faults: healed partition converges via retries" `Quick
      test_partition_convergence_via_retries;
    Alcotest.test_case "faults: anti-entropy recovers dead-lettered updates" `Quick
      test_long_partition_anti_entropy_recovery;
    QCheck_alcotest.to_alcotest replication_convergence_prop;
    Alcotest.test_case "bus: settled messages leave nothing behind" `Quick
      test_bus_forgets_settled_messages;
  ]
