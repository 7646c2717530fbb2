(* The HTTP substrate: methods, headers, URLs, IPs, cookies,
   cache-control, dates, bodies, messages, wire codec. *)

open Core.Http

let test_method_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Method_.to_string (Method_.of_string s)))
    [ "GET"; "HEAD"; "POST"; "PUT"; "DELETE"; "OPTIONS"; "TRACE" ];
  Alcotest.(check string) "unknown preserved" "PATCH" (Method_.to_string (Method_.of_string "PATCH"))

let test_method_case_insensitive () =
  Alcotest.(check bool) "get = GET" true (Method_.equal (Method_.of_string "get") Method_.GET)

let test_method_safety () =
  Alcotest.(check bool) "GET safe" true (Method_.is_safe Method_.GET);
  Alcotest.(check bool) "POST unsafe" false (Method_.is_safe Method_.POST)

let test_status_reasons () =
  Alcotest.(check string) "200" "OK" (Status.reason 200);
  Alcotest.(check string) "404" "Not Found" (Status.reason 404);
  Alcotest.(check string) "503" "Service Unavailable" (Status.reason 503);
  Alcotest.(check string) "unknown" "Unknown" (Status.reason 599)

let test_status_classes () =
  Alcotest.(check bool) "200 success" true (Status.is_success 200);
  Alcotest.(check bool) "302 redirect" true (Status.is_redirect 302);
  Alcotest.(check bool) "404 client" true (Status.is_client_error 404);
  Alcotest.(check bool) "500 server" true (Status.is_server_error 500)

let test_headers_case_insensitive () =
  let h = Headers.of_list [ ("Content-Type", "text/html") ] in
  Alcotest.(check (option string)) "lowercase get" (Some "text/html")
    (Headers.get h "content-type");
  Alcotest.(check (option string)) "mixed get" (Some "text/html")
    (Headers.get h "CONTENT-TYPE")

let test_headers_set_replaces () =
  let h = Headers.of_list [ ("X-A", "1"); ("X-B", "2"); ("x-a", "3") ] in
  let h = Headers.set h "X-A" "9" in
  Alcotest.(check (list string)) "single value" [ "9" ] (Headers.get_all h "x-a");
  (* position of the first occurrence is kept *)
  Alcotest.(check (list (pair string string))) "order kept"
    [ ("X-A", "9"); ("X-B", "2") ]
    (Headers.to_list h)

let test_headers_add_accumulates () =
  let h = Headers.add (Headers.add Headers.empty "Set-Cookie" "a=1") "Set-Cookie" "b=2" in
  Alcotest.(check (list string)) "both" [ "a=1"; "b=2" ] (Headers.get_all h "set-cookie")

let test_headers_remove () =
  let h = Headers.of_list [ ("A", "1"); ("B", "2") ] in
  let h = Headers.remove h "a" in
  Alcotest.(check bool) "gone" false (Headers.mem h "A");
  Alcotest.(check bool) "kept" true (Headers.mem h "B")

let test_url_parse_full () =
  let u = Url.parse_exn "http://www.Example.EDU:8080/a/b?x=1&y=2" in
  Alcotest.(check string) "host lowercased" "www.example.edu" u.Url.host;
  Alcotest.(check int) "port" 8080 u.Url.port;
  Alcotest.(check string) "path" "/a/b" u.Url.path;
  Alcotest.(check (option string)) "query x" (Some "1") (Url.query_get u "x");
  Alcotest.(check (option string)) "query y" (Some "2") (Url.query_get u "y")

let test_url_parse_schemeless_and_bare () =
  let u = Url.parse_exn "example.org" in
  Alcotest.(check string) "default path" "/" u.Url.path;
  Alcotest.(check int) "default port" 80 u.Url.port;
  Alcotest.(check string) "default scheme" "http" u.Url.scheme

let test_url_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Url.to_string (Url.parse_exn s)))
    [
      "http://example.org/";
      "http://example.org/a/b/c";
      "http://example.org:8080/x?k=v";
      "https://a.b.c/d?x=1&y=2";
    ]

let test_url_errors () =
  List.iter
    (fun s ->
      match Url.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s)
    [ ""; "http://"; "http://host:notaport/" ]

let test_url_nakika_rewriting () =
  let u = Url.parse_exn "http://www.example.edu/page" in
  let nk = Url.to_nakika u in
  Alcotest.(check string) "suffix appended" "www.example.edu.nakika.net" nk.Url.host;
  Alcotest.(check string) "idempotent" "www.example.edu.nakika.net"
    (Url.to_nakika nk).Url.host;
  (match Url.of_nakika nk with
   | Some orig -> Alcotest.(check string) "stripped" "www.example.edu" orig.Url.host
   | None -> Alcotest.fail "of_nakika failed");
  Alcotest.(check bool) "plain URL is not nakika" true (Url.of_nakika u = None)

let test_url_prefix_matching () =
  let u = Url.parse_exn "http://med.nyu.edu/library/page.html" in
  Alcotest.(check bool) "host only" true (Url.matches_prefix u "med.nyu.edu");
  Alcotest.(check bool) "host+path" true (Url.matches_prefix u "med.nyu.edu/library");
  Alcotest.(check bool) "wrong path" false (Url.matches_prefix u "med.nyu.edu/admin");
  Alcotest.(check bool) "parent domain" true (Url.matches_prefix u "nyu.edu");
  Alcotest.(check bool) "not a label boundary" false (Url.matches_prefix u "yu.edu");
  Alcotest.(check bool) "other host" false (Url.matches_prefix u "pitt.edu")

let test_url_site () =
  Alcotest.(check string) "default port" "example.org"
    (Url.site (Url.parse_exn "http://example.org/x"));
  Alcotest.(check string) "explicit port" "example.org:8080"
    (Url.site (Url.parse_exn "http://example.org:8080/x"))

let test_ip_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ip.to_string (Ip.of_string_exn s)))
    [ "0.0.0.0"; "127.0.0.1"; "10.20.30.40"; "255.255.255.255" ]

let test_ip_errors () =
  List.iter
    (fun s ->
      match Ip.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected failure for %S" s)
    [ "256.1.1.1"; "1.2.3"; "a.b.c.d"; "1.2.3.4.5"; "" ]

let test_cidr () =
  let c = Result.get_ok (Ip.cidr_of_string "10.0.0.0/8") in
  Alcotest.(check bool) "inside" true (Ip.cidr_contains c (Ip.of_string_exn "10.99.1.2"));
  Alcotest.(check bool) "outside" false (Ip.cidr_contains c (Ip.of_string_exn "11.0.0.1"));
  let host = Result.get_ok (Ip.cidr_of_string "192.168.1.5") in
  Alcotest.(check bool) "bare ip is /32" true
    (Ip.cidr_contains host (Ip.of_string_exn "192.168.1.5"));
  Alcotest.(check bool) "/32 excludes neighbour" false
    (Ip.cidr_contains host (Ip.of_string_exn "192.168.1.6"));
  let all = Result.get_ok (Ip.cidr_of_string "0.0.0.0/0") in
  Alcotest.(check bool) "/0 matches everything" true
    (Ip.cidr_contains all (Ip.of_string_exn "203.0.113.9"))

let test_client_matches () =
  let client = { Ip.ip = Ip.of_string_exn "128.122.1.1"; hostname = Some "cs.nyu.edu" } in
  Alcotest.(check bool) "cidr" true (Ip.client_matches ~pattern:"128.122.0.0/16" client);
  Alcotest.(check bool) "domain suffix" true (Ip.client_matches ~pattern:"nyu.edu" client);
  Alcotest.(check bool) "exact domain" true (Ip.client_matches ~pattern:"cs.nyu.edu" client);
  Alcotest.(check bool) "other domain" false (Ip.client_matches ~pattern:"pitt.edu" client);
  Alcotest.(check bool) "no hostname" false
    (Ip.client_matches ~pattern:"nyu.edu" { client with hostname = None })

let test_cookie_parse () =
  Alcotest.(check (list (pair string string))) "pairs"
    [ ("session", "abc"); ("lang", "en") ]
    (Cookie.parse "session=abc; lang=en");
  Alcotest.(check (list (pair string string))) "bare flag" [ ("flag", "") ] (Cookie.parse "flag")

let test_cookie_set () =
  Alcotest.(check string) "full" "sid=1; Path=/; Max-Age=60; HttpOnly"
    (Cookie.set_cookie ~path:"/" ~max_age:60 ~http_only:true ~name:"sid" ~value:"1" ());
  Alcotest.(check (option (pair string string))) "parse back" (Some ("sid", "1"))
    (Cookie.parse_set_cookie "sid=1; Path=/; HttpOnly")

let test_cache_control_parse () =
  let cc = Cache_control.parse "max-age=300, public" in
  Alcotest.(check (option int)) "max-age" (Some 300) cc.Cache_control.max_age;
  Alcotest.(check bool) "public" true cc.Cache_control.public;
  Alcotest.(check bool) "cacheable" true (Cache_control.cacheable cc)

let test_cache_control_uncacheable () =
  List.iter
    (fun v ->
      Alcotest.(check bool) v false (Cache_control.cacheable (Cache_control.parse v)))
    [ "no-store"; "private"; "no-cache"; "max-age=300, no-store" ]

let test_cache_control_expiry_priority () =
  let now = 1000.0 in
  let exp cc_str expires =
    Cache_control.expiry ~now ~date:(Some now)
      ~cache_control:(Cache_control.parse cc_str) ~expires
  in
  Alcotest.(check (option (float 0.001))) "s-maxage wins" (Some 1010.0)
    (exp "s-maxage=10, max-age=100" (Some 2000.0));
  Alcotest.(check (option (float 0.001))) "max-age beats expires" (Some 1100.0)
    (exp "max-age=100" (Some 2000.0));
  Alcotest.(check (option (float 0.001))) "expires fallback" (Some 2000.0)
    (exp "" (Some 2000.0));
  Alcotest.(check (option (float 0.001))) "nothing" None (exp "" None)

let test_http_date_roundtrip () =
  List.iter
    (fun t ->
      match Http_date.parse (Http_date.format t) with
      | Some t' -> Alcotest.(check (float 0.5)) "roundtrip" t t'
      | None -> Alcotest.failf "failed to parse %s" (Http_date.format t))
    [ 0.0; 1_136_073_600.0; 1_600_000_000.0; 86_399.0; 86_400.0 ]

let test_http_date_epoch () =
  Alcotest.(check string) "epoch" "Thu, 01 Jan 1970 00:00:00 GMT" (Http_date.format 0.0)

let test_http_date_known () =
  (* RFC 2616's example date. *)
  Alcotest.(check (option (float 0.5))) "rfc example" (Some 784111777.0)
    (Http_date.parse "Sun, 06 Nov 1994 08:49:37 GMT")

let test_http_date_bad () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Http_date.parse s = None))
    [ "not a date"; "Sun, 06 Nov 1994"; "Sun, 06 Xxx 1994 08:49:37 GMT" ]

let test_body_chunks () =
  let b = Body.of_chunks [ "hello "; ""; "world" ] in
  Alcotest.(check int) "length" 11 (Body.length b);
  Alcotest.(check string) "full" "hello world" (Body.to_string b);
  let r = Body.reader b in
  Alcotest.(check (option string)) "chunk 1" (Some "hello ") (Body.read r);
  Alcotest.(check (option string)) "chunk 2" (Some "world") (Body.read r);
  Alcotest.(check (option string)) "eof" None (Body.read r)

let test_body_read_size () =
  let b = Body.of_string "abcdefgh" in
  let r = Body.reader b in
  Alcotest.(check (option string)) "3 bytes" (Some "abc") (Body.read_size r 3);
  Alcotest.(check (option string)) "3 more" (Some "def") (Body.read_size r 3);
  Alcotest.(check (option string)) "tail" (Some "gh") (Body.read_size r 3);
  Alcotest.(check (option string)) "eof" None (Body.read_size r 3)

let test_message_request () =
  let r = Message.request ~meth:Method_.POST ~headers:[ ("X", "1") ] ~body:"data"
      "http://example.org/p" in
  Alcotest.(check string) "host" "example.org" (Message.host r);
  Alcotest.(check (option string)) "header" (Some "1") (Message.req_header r "x");
  Alcotest.(check string) "body" "data" (Body.to_string r.Message.body)

let test_message_response_content_length () =
  let r = Message.response ~body:"hello" () in
  Alcotest.(check (option string)) "auto content-length" (Some "5")
    (Message.resp_header r "Content-Length");
  Message.set_body r ~content_type:"text/plain" "much longer body";
  Alcotest.(check (option string)) "updated" (Some "16")
    (Message.resp_header r "Content-Length");
  Alcotest.(check (option string)) "content type" (Some "text/plain") (Message.content_type r)

let test_message_cacheable () =
  let req = Message.request "http://e.org/" in
  let ok = Message.response ~headers:[ ("Cache-Control", "max-age=60") ] ~body:"x" () in
  Alcotest.(check bool) "cacheable" true (Message.cacheable req ok);
  let nostore = Message.response ~headers:[ ("Cache-Control", "no-store") ] ~body:"x" () in
  Alcotest.(check bool) "no-store" false (Message.cacheable req nostore);
  let post = Message.request ~meth:Method_.POST "http://e.org/" in
  Alcotest.(check bool) "POST not cacheable" false (Message.cacheable post ok);
  let err = Message.error_response 500 in
  Alcotest.(check bool) "500 not cacheable" false (Message.cacheable req err)

let test_message_copy_isolation () =
  let r = Message.response ~body:"orig" () in
  let c = Message.copy_response r in
  Message.set_body c "changed";
  Alcotest.(check string) "original intact" "orig" (Body.to_string r.Message.resp_body)

let test_codec_request_roundtrip () =
  let r =
    Message.request ~meth:Method_.POST ~headers:[ ("X-Test", "yes") ] ~body:"payload"
      "http://example.org:8080/path?q=1"
  in
  match Codec.decode_request (Codec.encode_request r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check bool) "method" true (Method_.equal r.Message.meth r'.Message.meth);
    Alcotest.(check bool) "url" true (Url.equal r.Message.url r'.Message.url);
    Alcotest.(check (option string)) "header" (Some "yes") (Message.req_header r' "x-test");
    Alcotest.(check string) "body" "payload" (Body.to_string r'.Message.body)

let test_codec_response_roundtrip () =
  let r = Message.response ~status:404 ~headers:[ ("A", "b") ] ~body:"nope" () in
  match Codec.decode_response (Codec.encode_response r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check int) "status" 404 r'.Message.status;
    Alcotest.(check string) "body" "nope" (Body.to_string r'.Message.resp_body)

let test_codec_malformed () =
  List.iter
    (fun s ->
      match Codec.decode_request s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode failure for %S" s)
    [ ""; "GET\r\n\r\n"; "GET http://x/ HTTP/1.1\r\nBadHeader\r\n\r\n" ]

let url_roundtrip_prop =
  QCheck.Test.make ~name:"url: to_string/parse roundtrip on generated urls" ~count:200
    QCheck.(
      quad (string_gen_of_size (Gen.return 5) (Gen.char_range 'a' 'z'))
        (int_range 1 65535)
        (string_gen_of_size (Gen.return 4) (Gen.char_range 'a' 'z'))
        (string_gen_of_size (Gen.return 3) (Gen.char_range 'a' 'z')))
    (fun (host, port, seg, qval) ->
      let u = Url.make ~host ~port ~path:("/" ^ seg) ~query:[ ("k", qval) ] () in
      Url.equal u (Url.parse_exn (Url.to_string u)))



let test_range_parse () =
  let check s expected =
    Alcotest.(check bool) s true
      (match (Range.parse s, expected) with
       | Some r, Some (f, l) -> r.Range.first = f && r.Range.last = l
       | None, None -> true
       | _ -> false)
  in
  check "bytes=0-499" (Some (Some 0, Some 499));
  check "bytes=500-" (Some (Some 500, None));
  check "bytes=-200" (Some (None, Some 200));
  check "bytes=-" None;
  check "chunks=1-2" None;
  check "bytes=0-99,200-299" None;
  check "bytes=a-b" None

let test_range_resolve () =
  let r first last = { Range.first; last } in
  Alcotest.(check (option (pair int int))) "plain" (Some (10, 19))
    (Range.resolve (r (Some 10) (Some 19)) ~length:100);
  Alcotest.(check (option (pair int int))) "clamped" (Some (90, 99))
    (Range.resolve (r (Some 90) (Some 1000)) ~length:100);
  Alcotest.(check (option (pair int int))) "open end" (Some (50, 99))
    (Range.resolve (r (Some 50) None) ~length:100);
  Alcotest.(check (option (pair int int))) "suffix" (Some (80, 99))
    (Range.resolve (r None (Some 20)) ~length:100);
  Alcotest.(check (option (pair int int))) "suffix longer than body" (Some (0, 99))
    (Range.resolve (r None (Some 500)) ~length:100);
  Alcotest.(check (option (pair int int))) "past the end" None
    (Range.resolve (r (Some 100) None) ~length:100);
  Alcotest.(check (option (pair int int))) "inverted" None
    (Range.resolve (r (Some 5) (Some 2)) ~length:100)

let test_range_apply () =
  let resp = Message.response ~headers:[ ("Content-Type", "video/nkv") ] ~body:"0123456789" () in
  let r = Option.get (Range.parse "bytes=2-5") in
  Alcotest.(check bool) "applied" true (Range.apply r resp);
  Alcotest.(check int) "206" 206 resp.Message.status;
  Alcotest.(check string) "slice" "2345" (Body.to_string resp.Message.resp_body);
  Alcotest.(check (option string)) "content-range" (Some "bytes 2-5/10")
    (Message.resp_header resp "Content-Range");
  Alcotest.(check (option string)) "content-length" (Some "4")
    (Message.resp_header resp "Content-Length");
  (* Not re-applicable to a 206, and unsatisfiable ranges leave errors alone. *)
  Alcotest.(check bool) "not reapplied" false (Range.apply r resp);
  let err = Message.error_response 404 in
  Alcotest.(check bool) "404 untouched" false (Range.apply r err)

let codec_roundtrip_prop =
  QCheck.Test.make ~name:"codec: response encode/decode roundtrip" ~count:150
    QCheck.(
      triple (int_range 100 599)
        (small_list
           (pair
              (string_gen_of_size (Gen.int_range 1 10) (Gen.char_range 'A' 'Z'))
              (string_gen_of_size (Gen.int_range 0 20) (Gen.char_range 'a' 'z'))))
        (string_gen_of_size (Gen.int_bound 200) (Gen.char_range ' ' 'z')))
    (fun (status, headers, body) ->
      let r = Message.response ~status ~headers ~body () in
      match Codec.decode_response (Codec.encode_response r) with
      | Ok r' ->
        r'.Message.status = status
        && Body.to_string r'.Message.resp_body = body
        && List.for_all
             (fun (k, v) -> Headers.get r'.Message.resp_headers k = Some v)
             (List.filteri
                (fun i (k, _) ->
                  (* first occurrence wins for duplicate names *)
                  List.for_all
                    (fun (k2, _) -> String.lowercase_ascii k2 <> String.lowercase_ascii k)
                    (List.filteri (fun j _ -> j < i) headers))
                headers)
      | Error _ -> false)

(* Wire sizes are summed from field lengths; they must equal the length
   of the actual encoding on every message shape the simulator can see. *)
let gen_word lo hi = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range lo hi))

let gen_body =
  QCheck.Gen.(map Body.of_chunks (list_size (int_bound 4) (string_size ~gen:printable (int_bound 40))))

let gen_headers =
  QCheck.Gen.(map Headers.of_list (list_size (int_bound 5) (pair (gen_word 1 12) (gen_word 0 20))))

let gen_request =
  let open QCheck.Gen in
  let meth =
    oneof
      [
        oneofl Method_.[ GET; HEAD; POST; PUT; DELETE; OPTIONS; TRACE ];
        map (fun s -> Method_.Other (String.uppercase_ascii s)) (gen_word 1 8);
      ]
  in
  let url =
    map
      (fun (scheme, host, port, (path, query)) ->
        Url.make ~scheme ~port ~query ~host ~path ())
      (quad (oneofl [ "http"; "https" ]) (gen_word 1 12)
         (oneof [ return 80; int_range 1 65535 ])
         (pair (gen_word 0 15) (list_size (int_bound 4) (pair (gen_word 1 5) (gen_word 0 5)))))
  in
  map
    (fun (meth, url, headers, body) ->
      let r = Message.request "http://x/" in
      r.Message.meth <- meth;
      r.Message.url <- url;
      r.Message.headers <- headers;
      r.Message.body <- body;
      r)
    (quad meth url gen_headers gen_body)

let gen_response =
  let open QCheck.Gen in
  let status =
    oneof [ int_range 100 599; int_range (-9999) (-1); int_range 1000 9999; oneofl [ 0; 200; 304; 504 ] ]
  in
  map
    (fun (status, resp_headers, resp_body) -> { Message.status; resp_headers; resp_body })
    (triple status gen_headers gen_body)

let request_wire_size_prop =
  QCheck.Test.make ~name:"codec: request_wire_size = encoded length" ~count:500
    (QCheck.make ~print:Codec.encode_request gen_request)
    (fun r -> Codec.request_wire_size r = String.length (Codec.encode_request r))

let response_wire_size_prop =
  QCheck.Test.make ~name:"codec: response_wire_size = encoded length" ~count:500
    (QCheck.make ~print:Codec.encode_response gen_response)
    (fun r -> Codec.response_wire_size r = String.length (Codec.encode_response r))

let test_wire_size_large_body () =
  let video = String.make (350 * 1024) 'v' in
  let r = Message.response ~headers:[ ("Content-Type", "video/nkv") ] ~body:video () in
  let encoded = Codec.encode_response r in
  Alcotest.(check int) "350 KB body" (String.length encoded) (Codec.response_wire_size r);
  Alcotest.(check bool) "body is the tail" true
    (String.sub encoded (String.length encoded - String.length video) (String.length video) = video)

let test_wire_size_chunked_body () =
  let req = Message.request ~meth:Method_.POST "http://e.org:8080/up?a&b=2" in
  req.Message.body <- Body.of_chunks [ "first,"; ""; "second,"; "third" ];
  let encoded = Codec.encode_request req in
  Alcotest.(check int) "3-chunk body" (String.length encoded) (Codec.request_wire_size req);
  Alcotest.(check string) "chunks in order"
    "POST http://e.org:8080/up?a&b=2 HTTP/1.1\r\n\r\nfirst,second,third" encoded

let suite =
  [
    Alcotest.test_case "method: roundtrip" `Quick test_method_roundtrip;
    Alcotest.test_case "method: case-insensitive" `Quick test_method_case_insensitive;
    Alcotest.test_case "method: safety classes" `Quick test_method_safety;
    Alcotest.test_case "status: reason phrases" `Quick test_status_reasons;
    Alcotest.test_case "status: classes" `Quick test_status_classes;
    Alcotest.test_case "headers: case-insensitive access" `Quick test_headers_case_insensitive;
    Alcotest.test_case "headers: set replaces all values" `Quick test_headers_set_replaces;
    Alcotest.test_case "headers: add accumulates" `Quick test_headers_add_accumulates;
    Alcotest.test_case "headers: remove" `Quick test_headers_remove;
    Alcotest.test_case "url: full parse" `Quick test_url_parse_full;
    Alcotest.test_case "url: schemeless and bare host" `Quick test_url_parse_schemeless_and_bare;
    Alcotest.test_case "url: roundtrip" `Quick test_url_roundtrip;
    Alcotest.test_case "url: malformed" `Quick test_url_errors;
    Alcotest.test_case "url: .nakika.net rewriting" `Quick test_url_nakika_rewriting;
    Alcotest.test_case "url: predicate prefix matching" `Quick test_url_prefix_matching;
    Alcotest.test_case "url: site identifier" `Quick test_url_site;
    Alcotest.test_case "ip: roundtrip" `Quick test_ip_roundtrip;
    Alcotest.test_case "ip: malformed" `Quick test_ip_errors;
    Alcotest.test_case "ip: CIDR containment" `Quick test_cidr;
    Alcotest.test_case "ip: client matching (Fig. 3 semantics)" `Quick test_client_matches;
    Alcotest.test_case "cookie: parse" `Quick test_cookie_parse;
    Alcotest.test_case "cookie: set-cookie" `Quick test_cookie_set;
    Alcotest.test_case "cache-control: parse" `Quick test_cache_control_parse;
    Alcotest.test_case "cache-control: uncacheable directives" `Quick
      test_cache_control_uncacheable;
    Alcotest.test_case "cache-control: expiry priority" `Quick test_cache_control_expiry_priority;
    Alcotest.test_case "http-date: roundtrip" `Quick test_http_date_roundtrip;
    Alcotest.test_case "http-date: epoch rendering" `Quick test_http_date_epoch;
    Alcotest.test_case "http-date: RFC 2616 example" `Quick test_http_date_known;
    Alcotest.test_case "http-date: malformed" `Quick test_http_date_bad;
    Alcotest.test_case "body: chunked reads" `Quick test_body_chunks;
    Alcotest.test_case "body: sized reads" `Quick test_body_read_size;
    Alcotest.test_case "message: request construction" `Quick test_message_request;
    Alcotest.test_case "message: content-length maintenance" `Quick
      test_message_response_content_length;
    Alcotest.test_case "message: cacheability" `Quick test_message_cacheable;
    Alcotest.test_case "message: copies are isolated" `Quick test_message_copy_isolation;
    Alcotest.test_case "codec: request roundtrip" `Quick test_codec_request_roundtrip;
    Alcotest.test_case "codec: response roundtrip" `Quick test_codec_response_roundtrip;
    Alcotest.test_case "codec: malformed input" `Quick test_codec_malformed;
    QCheck_alcotest.to_alcotest url_roundtrip_prop;
    QCheck_alcotest.to_alcotest codec_roundtrip_prop;
    QCheck_alcotest.to_alcotest request_wire_size_prop;
    QCheck_alcotest.to_alcotest response_wire_size_prop;
    Alcotest.test_case "codec: wire size of a 350 KB body" `Quick test_wire_size_large_body;
    Alcotest.test_case "codec: wire size of a 3-chunk body" `Quick test_wire_size_chunked_body;
    Alcotest.test_case "range: parse" `Quick test_range_parse;
    Alcotest.test_case "range: resolve" `Quick test_range_resolve;
    Alcotest.test_case "range: apply to a response" `Quick test_range_apply;
  ]
