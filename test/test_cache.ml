(* The proxy cache: freshness, LRU eviction, size accounting; and the
   TTL'd memo cache. *)

open Core.Cache
open Core.Http

let resp ?(body = "content") ?(headers = []) () = Message.response ~headers ~body ()

(* A cache with its registry: tests read its size through the
   [cache.entries] and [cache.bytes] gauges the node exports. *)
let metered ?max_bytes () =
  let m = Core.Telemetry.Metrics.create () in
  (Http_cache.create ?max_bytes ~metrics:m (), m)

let entries m = int_of_float (Core.Telemetry.Metrics.gauge m "cache.entries")
let bytes m = int_of_float (Core.Telemetry.Metrics.gauge m "cache.bytes")

let test_miss_then_hit () =
  let m = Core.Telemetry.Metrics.create () in
  let c = Http_cache.create ~metrics:m () in
  Alcotest.(check bool) "miss" true (Http_cache.lookup c ~now:0.0 ~key:"k" = None);
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 100.0) (resp ());
  (match Http_cache.lookup c ~now:1.0 ~key:"k" with
   | Some r -> Alcotest.(check string) "body" "content" (Body.to_string r.Message.resp_body)
   | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "hits" 1 (Http_cache.hits c);
  Alcotest.(check int) "misses" 1 (Core.Telemetry.Metrics.counter m "cache.misses")

let test_expiry () =
  let c, m = metered () in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 10.0) (resp ());
  Alcotest.(check bool) "fresh" true (Http_cache.lookup c ~now:9.9 ~key:"k" <> None);
  Alcotest.(check bool) "expired" true (Http_cache.lookup c ~now:10.0 ~key:"k" = None);
  (* Stale entries are retained for revalidation. *)
  Alcotest.(check int) "stale entry retained" 1 (entries m);
  Alcotest.(check bool) "stale lookup sees it" true (Http_cache.lookup_stale c ~key:"k" <> None)

let test_refresh_revives_stale () =
  let c = Http_cache.create () in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 10.0) (resp ());
  Alcotest.(check bool) "stale" true (Http_cache.lookup c ~now:20.0 ~key:"k" = None);
  Http_cache.refresh c ~key:"k" ~expiry:30.0;
  Alcotest.(check bool) "fresh again after 304" true
    (Http_cache.lookup c ~now:20.0 ~key:"k" <> None);
  (* Refreshing an absent key is a no-op. *)
  Http_cache.refresh c ~key:"ghost" ~expiry:99.0;
  Alcotest.(check bool) "ghost absent" true (Http_cache.lookup c ~now:20.0 ~key:"ghost" = None)

let test_no_expiry_not_stored () =
  let c, m = metered () in
  Alcotest.(check bool) "not stored" false
    (Http_cache.store c ~now:0.0 ~key:"k" ~expiry:None (resp ()));
  Alcotest.(check bool) "already-stale not stored" false
    (Http_cache.store c ~now:50.0 ~key:"k2" ~expiry:(Some 10.0) (resp ()));
  Alcotest.(check bool) "nothing to revalidate" true (Http_cache.lookup_stale c ~key:"k" = None);
  Alcotest.(check int) "no insertions" 0 (Core.Telemetry.Metrics.counter m "cache.insertions")

let test_returned_copy_isolated () =
  let c = Http_cache.create () in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 100.0) (resp ~body:"original" ());
  let r1 = Option.get (Http_cache.lookup c ~now:1.0 ~key:"k") in
  Message.set_body r1 "mutated";
  let r2 = Option.get (Http_cache.lookup c ~now:2.0 ~key:"k") in
  Alcotest.(check string) "unaffected" "original" (Body.to_string r2.Message.resp_body)

let test_insert_copy_isolated () =
  let c = Http_cache.create () in
  let original = resp ~body:"original" () in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 100.0) original;
  Message.set_body original "mutated after insert";
  let r = Option.get (Http_cache.lookup c ~now:1.0 ~key:"k") in
  Alcotest.(check string) "snapshot at insert" "original" (Body.to_string r.Message.resp_body)

let test_lru_eviction () =
  (* Three ~1KB entries in a cache sized for two. *)
  let body = String.make 1000 'x' in
  let m = Core.Telemetry.Metrics.create () in
  let c = Http_cache.create ~max_bytes:2500 ~metrics:m () in
  Http_cache.insert c ~now:0.0 ~key:"a" ~expiry:(Some 100.0) (resp ~body ());
  Http_cache.insert c ~now:0.0 ~key:"b" ~expiry:(Some 100.0) (resp ~body ());
  (* touch a so b becomes LRU *)
  ignore (Http_cache.lookup c ~now:1.0 ~key:"a");
  Http_cache.insert c ~now:2.0 ~key:"c" ~expiry:(Some 100.0) (resp ~body ());
  Alcotest.(check bool) "a kept" true (Http_cache.lookup c ~now:3.0 ~key:"a" <> None);
  Alcotest.(check bool) "b evicted" true (Http_cache.lookup c ~now:3.0 ~key:"b" = None);
  Alcotest.(check bool) "c kept" true (Http_cache.lookup c ~now:3.0 ~key:"c" <> None);
  Alcotest.(check int) "one eviction" 1 (Core.Telemetry.Metrics.counter m "cache.evictions")

let test_oversized_entry_ignored () =
  let c, m = metered ~max_bytes:200 () in
  let store ?(body = String.make 1000 'x') key =
    Http_cache.store c ~now:0.0 ~key ~expiry:(Some 100.0) (resp ~body ())
  in
  Alcotest.(check bool) "refused" false (store "big");
  Alcotest.(check int) "ignored" 0 (entries m);
  Alcotest.(check bool) "kept" true (store ~body:"" "small");
  Alcotest.(check bool) "refused over a kept copy" false (store "small");
  Alcotest.(check int) "old copy stays" 1 (entries m);
  Alcotest.(check bool) "small still served" true
    (Http_cache.lookup c ~now:1.0 ~key:"small" <> None)

let test_replace_updates_size () =
  let c, m = metered () in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 100.0) (resp ~body:(String.make 1000 'x') ());
  let size1 = bytes m in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 100.0) (resp ~body:"tiny" ());
  Alcotest.(check bool) "size shrank" true (bytes m < size1);
  Alcotest.(check int) "one entry" 1 (entries m)

let test_remove_and_clear () =
  (* Each removal moves the gauges at once. *)
  let c, m = metered () in
  Http_cache.insert c ~now:0.0 ~key:"a" ~expiry:(Some 100.0) (resp ());
  let one = bytes m in
  Http_cache.insert c ~now:0.0 ~key:"b" ~expiry:(Some 100.0) (resp ());
  Http_cache.remove c ~key:"a";
  Alcotest.(check bool) "a gone" true (Http_cache.lookup_stale c ~key:"a" = None);
  Alcotest.(check int) "removal drops an entry" 1 (entries m);
  Alcotest.(check int) "removal frees its bytes" one (bytes m);
  Http_cache.insert c ~now:0.0 ~key:"c" ~expiry:(Some 100.0) (resp ());
  Alcotest.(check int) "a's slot freed" 2 (entries m);
  Http_cache.remove c ~key:"b";
  Alcotest.(check int) "b's entry gone" 1 (entries m);
  Http_cache.remove c ~key:"c";
  Alcotest.(check bool) "empty" true
    (List.for_all (fun key -> Http_cache.lookup_stale c ~key = None) [ "a"; "b"; "c" ]);
  Alcotest.(check int) "no entries" 0 (entries m);
  Alcotest.(check int) "no bytes" 0 (bytes m);
  Http_cache.insert c ~now:0.0 ~key:"a" ~expiry:(Some 100.0) (resp ());
  Alcotest.(check int) "no bytes left behind" one (bytes m);
  Alcotest.(check int) "one entry" 1 (entries m)

let test_mem () =
  let c = Http_cache.create () in
  Http_cache.insert c ~now:0.0 ~key:"k" ~expiry:(Some 10.0) (resp ());
  Alcotest.(check bool) "mem fresh" true (Http_cache.lookup c ~now:5.0 ~key:"k" <> None);
  Alcotest.(check bool) "mem stale" false (Http_cache.lookup c ~now:15.0 ~key:"k" <> None)

let lru_never_exceeds_budget_prop =
  QCheck.Test.make ~name:"http cache never exceeds its byte budget" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (int_range 1 2000))
    (fun sizes ->
      let c, m = metered ~max_bytes:5000 () in
      List.iteri
        (fun i n ->
          Http_cache.insert c ~now:0.0
            ~key:(string_of_int i)
            ~expiry:(Some 100.0)
            (resp ~body:(String.make n 'x') ()))
        sizes;
      bytes m <= 5000)

let test_memo_cache () =
  let m : string Memo_cache.t = Memo_cache.create () in
  Alcotest.(check (option string)) "miss" None (Memo_cache.find m ~now:0.0 "k");
  Memo_cache.put m ~key:"k" ~expiry:10.0 "value";
  Alcotest.(check (option string)) "hit" (Some "value") (Memo_cache.find m ~now:5.0 "k");
  Alcotest.(check (option string)) "expired" None (Memo_cache.find m ~now:10.0 "k");
  Alcotest.(check int) "expired entry dropped" 0 (Memo_cache.size m)

let test_memo_cache_replace () =
  let m : int Memo_cache.t = Memo_cache.create () in
  Memo_cache.put m ~key:"k" ~expiry:10.0 1;
  Memo_cache.put m ~key:"k" ~expiry:20.0 2;
  Alcotest.(check (option int)) "replaced" (Some 2) (Memo_cache.find m ~now:15.0 "k");
  Memo_cache.remove m "k";
  Alcotest.(check (option int)) "removed" None (Memo_cache.find m ~now:15.0 "k")

let suite =
  [
    Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
    Alcotest.test_case "entries expire" `Quick test_expiry;
    Alcotest.test_case "refresh revives stale entries (304 path)" `Quick
      test_refresh_revives_stale;
    Alcotest.test_case "lifetimeless responses are not stored" `Quick
      test_no_expiry_not_stored;
    Alcotest.test_case "lookups return isolated copies" `Quick test_returned_copy_isolated;
    Alcotest.test_case "inserts snapshot the response" `Quick test_insert_copy_isolated;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "oversized entries ignored" `Quick test_oversized_entry_ignored;
    Alcotest.test_case "replacement updates size accounting" `Quick test_replace_updates_size;
    Alcotest.test_case "remove and clear" `Quick test_remove_and_clear;
    Alcotest.test_case "mem respects freshness" `Quick test_mem;
    QCheck_alcotest.to_alcotest lru_never_exceeds_budget_prop;
    Alcotest.test_case "memo cache TTL" `Quick test_memo_cache;
    Alcotest.test_case "memo cache replace/remove" `Quick test_memo_cache_replace;
  ]
