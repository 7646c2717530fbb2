(* The HTTP substrate: methods, headers, URLs, IPs, cookies,
   cache-control, dates, bodies, messages, wire codec. *)

open Core.Http

(* A URL built field by field, normalised as [Url.parse] normalises:
   lowercase host, a path that starts with '/'. *)
let make_url ?(scheme = "http") ?(port = 80) ?(query = []) ~host ~path () =
  let path = if path = "" then "/" else if path.[0] = '/' then path else "/" ^ path in
  { Url.scheme; host = String.lowercase_ascii host; port; path; query }

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
  Alcotest.(check bool) "404 is not" false (Status.is_success 404)

let test_headers_case_insensitive () =
  let h = Headers.of_list [ ("Content-Type", "text/html") ] in
  Alcotest.(check (option string)) "lowercase get" (Some "text/html")
    (Headers.get h "content-type");
  Alcotest.(check (option string)) "mixed get" (Some "text/html")
    (Headers.get h "CONTENT-TYPE")

let test_headers_set_replaces () =
  let h = Headers.of_list [ ("X-A", "1"); ("X-B", "2"); ("x-a", "3") ] in
  let h = Headers.set h "X-A" "9" in
  (* one value left, at the position of the first occurrence *)
  Alcotest.(check (list (pair string string))) "order kept"
    [ ("X-A", "9"); ("X-B", "2") ]
    (Headers.to_list h)

let test_headers_add_accumulates () =
  let h = Headers.of_list [ ("Set-Cookie", "a=1"); ("set-cookie", "b=2") ] in
  Alcotest.(check (list (pair string string))) "both"
    [ ("Set-Cookie", "a=1"); ("set-cookie", "b=2") ]
    (Headers.to_list h);
  Alcotest.(check (option string)) "first wins" (Some "a=1") (Headers.get h "SET-COOKIE")

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
  let nk = Url.parse_exn "http://www.example.edu.nakika.net/page" in
  (match Url.of_nakika nk with
   | Some orig -> Alcotest.(check string) "stripped" "www.example.edu" orig.Url.host
   | None -> Alcotest.fail "of_nakika failed");
  Alcotest.(check bool) "plain URL is not nakika" true (Url.of_nakika u = None)

let test_url_prefix_matching () =
  let u = Url.parse_exn "http://med.nyu.edu/library/page.html" in
  let matches_prefix u pattern = Core.Policy.Predicate.url ~pattern u <> None in
  Alcotest.(check bool) "host only" true (matches_prefix u "med.nyu.edu");
  Alcotest.(check bool) "host+path" true (matches_prefix u "med.nyu.edu/library");
  Alcotest.(check bool) "wrong path" false (matches_prefix u "med.nyu.edu/admin");
  Alcotest.(check bool) "parent domain" true (matches_prefix u "nyu.edu");
  Alcotest.(check bool) "not a label boundary" false (matches_prefix u "yu.edu");
  Alcotest.(check bool) "other host" false (matches_prefix u "pitt.edu")

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
  let client_matches ~pattern c = Core.Policy.Predicate.client ~pattern c <> None in
  let client = { Ip.ip = Ip.of_string_exn "128.122.1.1"; hostname = Some "cs.nyu.edu" } in
  Alcotest.(check bool) "cidr" true (client_matches ~pattern:"128.122.0.0/16" client);
  Alcotest.(check bool) "domain suffix" true (client_matches ~pattern:"nyu.edu" client);
  Alcotest.(check bool) "exact domain" true (client_matches ~pattern:"cs.nyu.edu" client);
  Alcotest.(check bool) "other domain" false (client_matches ~pattern:"pitt.edu" client);
  Alcotest.(check bool) "no hostname" false
    (client_matches ~pattern:"nyu.edu" { client with hostname = None })

let test_cookie_parse () =
  Alcotest.(check (list (pair string string))) "pairs"
    [ ("session", "abc"); ("lang", "en") ]
    (Cookie.parse "session=abc; lang=en");
  Alcotest.(check (list (pair string string))) "bare flag" [ ("flag", "") ] (Cookie.parse "flag")

let test_cache_control_parse () =
  let cc = Cache_control.parse "max-age=300, public" in
  Alcotest.(check (option int)) "max-age" (Some 300) cc.Cache_control.max_age;
  Alcotest.(check bool) "public" true cc.Cache_control.public;
  Alcotest.(check (option (float 0.0))) "cacheable" (Some 300.0)
    (Cache_control.expiry ~now:0.0 ~date:(fun () -> None) ~cache_control:cc
       ~expires:(fun () -> None))

(* Each directive forbids caching: no lifetime, whatever max-age or
   Expires says. *)
let test_cache_control_uncacheable () =
  List.iter
    (fun v ->
      Alcotest.(check (option (float 0.0))) v None
        (Cache_control.expiry ~now:0.0 ~date:(fun () -> None)
           ~cache_control:(Cache_control.parse v) ~expires:(fun () -> Some 60.0)))
    [ "no-store"; "private"; "no-cache"; "max-age=300, no-store" ]

let test_cache_control_expiry_priority () =
  let now = 1000.0 in
  let exp cc_str expires =
    Cache_control.expiry ~now ~date:(fun () -> Some now)
      ~cache_control:(Cache_control.parse cc_str) ~expires:(fun () -> expires)
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
    [ 0.0; Core.Sim.Sim.epoch; 1_600_000_000.0; 86_399.0; 86_400.0 ]

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

let test_body_string () =
  let s = "hello world" in
  let b = Body.of_string s in
  Alcotest.(check int) "length" 11 (Body.length b);
  Alcotest.(check bool) "to_string is the string itself" true (Body.to_string b == s);
  Alcotest.(check int) "empty" 0 (Body.length (Body.of_string ""));
  Alcotest.(check int) "length counts bytes" 5 (Body.length (Body.of_string "caf\xc3\xa9"))

let test_message_request () =
  let r = Message.request ~meth:Method_.POST ~headers:[ ("X", "1") ] ~body:"data"
      "http://example.org/p" in
  Alcotest.(check string) "host" "example.org" r.Message.url.Url.host;
  Alcotest.(check (option string)) "header" (Some "1") (Message.req_header r "x");
  Alcotest.(check string) "body" "data" (Body.to_string r.Message.body)

let test_message_response_content_length () =
  let r = Message.response ~body:"hello" () in
  Alcotest.(check (option string)) "auto content-length" (Some "5")
    (Message.resp_header r "Content-Length");
  Message.set_body r "much longer body";
  Alcotest.(check (option string)) "updated" (Some "16")
    (Message.resp_header r "Content-Length")

let test_message_cacheable () =
  let now = 1000.0 in
  let expiry = Message.cache_expiry ~now in
  let req = Message.request "http://e.org/" in
  let ok = Message.response ~headers:[ ("Cache-Control", "max-age=60") ] ~body:"x" () in
  Alcotest.(check (option (float 0.0))) "cacheable" (Some 1060.0) (expiry req ok);
  let nostore = Message.response ~headers:[ ("Cache-Control", "no-store") ] ~body:"x" () in
  Alcotest.(check (option (float 0.0))) "no-store" None (expiry req nostore);
  let lifetimeless = Message.response ~body:"x" () in
  Alcotest.(check (option (float 0.0))) "no lifetime" None (expiry req lifetimeless);
  let post = Message.request ~meth:Method_.POST "http://e.org/" in
  Alcotest.(check (option (float 0.0))) "POST not cacheable" None (expiry post ok);
  let err = Message.error_response 500 in
  Message.set_resp_header err "Cache-Control" "max-age=60";
  Alcotest.(check (option (float 0.0))) "500 not cacheable" None (expiry req err)

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
    Alcotest.(check bool) "url" true (r.Message.url = r'.Message.url);
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
      let u = make_url ~host ~port ~path:("/" ^ seg) ~query:[ ("k", qval) ] () in
      u = Url.parse_exn (Url.to_string u))



(* [Headers] compares names without lowercased copies; the reference
   below is the copying version it replaced. Names come from a small
   alphabet of mixed-case letters, a dash and non-ASCII bytes (which
   [lowercase_ascii] leaves alone), so duplicates and near-misses are
   common. *)
module Reference_headers = struct
  let norm = String.lowercase_ascii

  let get t name = List.assoc_opt (norm name) (List.map (fun (k, v) -> (norm k, v)) t)

  let mem t name = get t name <> None

  let remove t name = List.filter (fun (k, _) -> norm k <> norm name) t

  let set t name value =
    let replaced = ref false in
    let t' =
      List.filter_map
        (fun (k, v) ->
          if norm k = norm name then
            if !replaced then None
            else begin
              replaced := true;
              Some (k, value)
            end
          else Some (k, v))
        t
    in
    if !replaced then t' else t @ [ (name, value) ]
end

let header_name_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'A'; 'b'; 'B'; '-'; '\xc9'; '\xe9'; 'z' ]) (int_range 0 3))

let headers_match_reference_prop =
  QCheck.Test.make ~name:"headers: case-insensitive lookups match the lowercasing reference"
    ~count:500
    QCheck.(
      make
        ~print:(fun (l, n) ->
          Printf.sprintf "%s / %S" (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) l)) n)
        Gen.(
          pair
            (list_size (int_range 0 8) (pair header_name_gen (map string_of_int small_nat)))
            header_name_gen))
    (fun (l, name) ->
      let h = Headers.of_list l in
      Headers.get h name = Reference_headers.get l name
      && Headers.mem h name = Reference_headers.mem l name
      && Headers.to_list (Headers.remove h name) = Reference_headers.remove l name
      && Headers.to_list (Headers.set h name "new") = Reference_headers.set l name "new")

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
  (* The span [Range.apply] slices out of a 100-byte instance, read back
     from the 206's Content-Range. *)
  let resolve first last =
    let resp = Message.response ~body:(String.make 100 'x') () in
    if not (Range.apply { Range.first; last } resp) then None
    else
      match Message.resp_header resp "Content-Range" with
      | Some cr -> Scanf.sscanf_opt cr "bytes %d-%d/100" (fun a b -> (a, b))
      | None -> None
  in
  Alcotest.(check (option (pair int int))) "plain" (Some (10, 19)) (resolve (Some 10) (Some 19));
  Alcotest.(check (option (pair int int))) "clamped" (Some (90, 99))
    (resolve (Some 90) (Some 1000));
  Alcotest.(check (option (pair int int))) "open end" (Some (50, 99)) (resolve (Some 50) None);
  Alcotest.(check (option (pair int int))) "suffix" (Some (80, 99)) (resolve None (Some 20));
  Alcotest.(check (option (pair int int))) "suffix longer than body" (Some (0, 99))
    (resolve None (Some 500));
  Alcotest.(check (option (pair int int))) "past the end" None (resolve (Some 100) None);
  Alcotest.(check (option (pair int int))) "inverted" None (resolve (Some 5) (Some 2))

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

let gen_body = QCheck.Gen.(map Body.of_string (string_size ~gen:printable (int_bound 160)))

let gen_headers =
  QCheck.Gen.(map Headers.of_list (list_size (int_bound 5) (pair (gen_word 1 12) (gen_word 0 20))))

(* Ports 80 and otherwise; queries of 0-4 items, values often empty. *)
let gen_url =
  let open QCheck.Gen in
  map
    (fun (scheme, host, port, (path, query)) -> make_url ~scheme ~port ~query ~host ~path ())
    (quad (oneofl [ "http"; "https" ]) (gen_word 1 12)
       (oneof [ return 80; int_range 1 65535 ])
       (pair (gen_word 0 15) (list_size (int_bound 4) (pair (gen_word 1 5) (gen_word 0 5)))))

let gen_request =
  let open QCheck.Gen in
  let meth =
    oneof
      [
        oneofl Method_.[ GET; HEAD; POST; PUT; DELETE; OPTIONS; TRACE ];
        map (fun s -> Method_.Other (String.uppercase_ascii s)) (gen_word 1 8);
      ]
  in
  let url = gen_url in
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
    oneof
      [
        int_range 100 599;
        int_range (-9999) (-1);
        int_range 1000 9999;
        oneofl [ 0; -1; 200; 304; 504; min_int; max_int ];
      ]
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

(* [Http_date.format] writes its bytes by hand; this is the Printf
   version it replaced, with its own civil-from-days, and the
   specification it must match byte for byte. *)
let reference_http_date_format t =
  let civil_from_days z =
    let z = z + 719468 in
    let era = (if z >= 0 then z else z - 146096) / 146097 in
    let doe = z - (era * 146097) in
    let yoe = (doe - (doe / 1460) + (doe / 36524) - (doe / 146096)) / 365 in
    let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
    let mp = ((5 * doy) + 2) / 153 in
    let d = doy - (((153 * mp) + 2) / 5) + 1 in
    let m = if mp < 10 then mp + 3 else mp - 9 in
    ((yoe + (era * 400)) + (if m <= 2 then 1 else 0), m, d)
  in
  let secs = int_of_float (floor t) in
  let days = if secs >= 0 then secs / 86400 else (secs - 86399) / 86400 in
  let rem = secs - (days * 86400) in
  let y, m, d = civil_from_days days in
  let dow = (((days mod 7) + 7) mod 7 + 4) mod 7 in
  Printf.sprintf "%s, %02d %s %04d %02d:%02d:%02d GMT"
    [| "Sun"; "Mon"; "Tue"; "Wed"; "Thu"; "Fri"; "Sat" |].(dow)
    d
    [| "Jan"; "Feb"; "Mar"; "Apr"; "May"; "Jun"; "Jul"; "Aug"; "Sep"; "Oct"; "Nov"; "Dec" |].(m - 1)
    y (rem / 3600) (rem / 60 mod 60) (rem mod 60)

(* Times whose years run from -9999 to 99999 (so the year takes one to
   five digits, with or without a sign), fractional and negative ones
   included, with the Unix epoch's neighbourhood drawn more often. *)
let gen_http_time =
  let lo = Http_date.of_civil ~y:(-9999) ~month:1 ~d:1 ~hh:0 ~mm:0 ~ss:0
  and hi = Http_date.of_civil ~y:99999 ~month:12 ~d:31 ~hh:23 ~mm:59 ~ss:59 in
  QCheck.Gen.(
    oneof
      [
        float_range lo hi;
        float_range (-1e6) 1e6;
        map float_of_int (int_range (int_of_float lo) (int_of_float hi));
        oneofl [ lo; hi; 0.0; -0.5; -1.0; -86400.0; Core.Sim.Sim.epoch ];
      ])

let http_date_format_prop =
  QCheck.Test.make ~name:"http-date: format matches the Printf reference" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%.3f") gen_http_time)
    (fun t ->
      let s = Http_date.format t and expected = reference_http_date_format t in
      s = expected || QCheck.Test.fail_reportf "%S, expected %S" s expected)

(* The expiry [Message.response_expiry] gave when it parsed Cache-Control,
   Date and Expires up front, whatever the directives said. *)
let reference_response_expiry ~now r =
  let cc =
    match Message.resp_header r "Cache-Control" with
    | Some v -> Cache_control.parse v
    | None -> Cache_control.empty
  in
  let date = Option.bind (Message.resp_header r "Date") Http_date.parse in
  let expires = Option.bind (Message.resp_header r "Expires") Http_date.parse in
  if cc.Cache_control.no_store || cc.Cache_control.private_ || cc.Cache_control.no_cache then None
  else
    match (cc.Cache_control.s_maxage, cc.Cache_control.max_age, expires) with
    | Some age, _, _ | None, Some age, _ -> Some (now +. float_of_int age)
    | None, None, Some exp -> Some (now +. (exp -. Option.value date ~default:now))
    | None, None, None -> None

(* Responses whose Cache-Control, Date and Expires are each absent,
   well-formed or garbage, in every combination. *)
let gen_cached_response =
  let open QCheck.Gen in
  let directive =
    oneofl
      [
        "max-age=60"; "max-age=0"; "max-age=x"; "s-maxage=30"; "S-MaxAge=5"; "no-cache";
        "no-store"; "private"; "public"; "must-revalidate"; "max-age"; "junk"; "";
      ]
  in
  let cache_control = map (String.concat ", ") (list_size (int_bound 3) directive) in
  let date = map Http_date.format (float_range 0.0 4e9) in
  let value = oneof [ date; oneofl [ "yesterday"; ""; "Thu, 01 Jan 1970 00:00:00" ] ] in
  let header name = opt (map (fun v -> (name, v)) value) in
  map
    (fun (cc, d, e) ->
      let headers =
        List.filter_map Fun.id
          [ Option.map (fun v -> ("Cache-Control", v)) cc; d; e ]
      in
      Message.response ~headers ~body:"x" ())
    (triple (opt cache_control) (header "Date") (header "Expires"))

let response_expiry_prop =
  QCheck.Test.make ~name:"message: response_expiry matches the eager reference" ~count:2000
    (QCheck.make
       ~print:(fun (now, r) ->
         Printf.sprintf "now=%h %s" now
           (String.concat "; "
              (List.map (fun (k, v) -> k ^ ": " ^ v) (Headers.to_list r.Message.resp_headers))))
       QCheck.Gen.(
         pair (oneof [ float_range (-1e10) 1e10; oneofl [ 0.0; 1e9 ] ]) gen_cached_response))
    (fun (now, r) -> Message.response_expiry ~now r = reference_response_expiry ~now r)

(* [Url.to_string] and [Ip.to_string] build their strings by hand; these
   Printf versions are the specification they must match. *)
let reference_url_to_string (u : Url.t) =
  let query =
    if u.Url.query = [] then ""
    else
      "?"
      ^ String.concat "&" (List.map (fun (k, v) -> if v = "" then k else k ^ "=" ^ v) u.Url.query)
  in
  let port = if u.Url.port = 80 then "" else ":" ^ string_of_int u.Url.port in
  Printf.sprintf "%s://%s%s%s%s" u.Url.scheme u.Url.host port u.Url.path query

let url_to_string_prop =
  QCheck.Test.make ~name:"url: to_string matches the Printf reference" ~count:500
    (QCheck.make ~print:reference_url_to_string gen_url)
    (fun u ->
      let s = Url.to_string u in
      s = reference_url_to_string u && String.length s = Url.length u)

let ip_to_string_prop =
  QCheck.Test.make ~name:"ip: to_string matches the Printf reference" ~count:500
    QCheck.(map Int32.of_int (int_range 0 0xFFFF_FFFF))
    (fun n ->
      let b i = Int32.to_int (Int32.logand (Int32.shift_right_logical n i) 0xFFl) in
      let ip = Ip.of_int32 n in
      Ip.to_string ip = Printf.sprintf "%d.%d.%d.%d" (b 24) (b 16) (b 8) (b 0)
      && Ip.of_string (Ip.to_string ip) = Ok ip)

let test_url_to_string_cases () =
  List.iter
    (fun (u, expected) -> Alcotest.(check string) expected expected (Url.to_string u))
    [
      (make_url ~host:"a.org" ~path:"/" (), "http://a.org/");
      (make_url ~port:8080 ~host:"a.org" ~path:"/x" (), "http://a.org:8080/x");
      (make_url ~query:[ ("k", "") ] ~host:"a.org" ~path:"/" (), "http://a.org/?k");
      ( make_url ~scheme:"https" ~port:1 ~query:[ ("a", "1"); ("b", ""); ("c", "3") ] ~host:"A.org"
          ~path:"p" (),
        "https://a.org:1/p?a=1&b&c=3" );
    ]

let test_wire_size_large_body () =
  let video = String.make (350 * 1024) 'v' in
  let r = Message.response ~headers:[ ("Content-Type", "video/nkv") ] ~body:video () in
  let encoded = Codec.encode_response r in
  Alcotest.(check int) "350 KB body" (String.length encoded) (Codec.response_wire_size r);
  Alcotest.(check bool) "body is the tail" true
    (String.sub encoded (String.length encoded - String.length video) (String.length video) = video)

let test_wire_size_chunked_body () =
  let req = Message.request ~meth:Method_.POST "http://e.org:8080/up?a&b=2" in
  req.Message.body <- Body.of_string (String.concat "" [ "first,"; ""; "second,"; "third" ]);
  let encoded = Codec.encode_request req in
  Alcotest.(check int) "3-chunk body" (String.length encoded) (Codec.request_wire_size req);
  Alcotest.(check string) "parts in order"
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
    Alcotest.test_case "cache-control: parse" `Quick test_cache_control_parse;
    Alcotest.test_case "cache-control: uncacheable directives" `Quick
      test_cache_control_uncacheable;
    Alcotest.test_case "cache-control: expiry priority" `Quick test_cache_control_expiry_priority;
    Alcotest.test_case "http-date: roundtrip" `Quick test_http_date_roundtrip;
    Alcotest.test_case "http-date: epoch rendering" `Quick test_http_date_epoch;
    Alcotest.test_case "http-date: malformed" `Quick test_http_date_bad;
    Alcotest.test_case "http-date: RFC 2616 example" `Quick test_http_date_known;
    Alcotest.test_case "body: one string" `Quick test_body_string;
    Alcotest.test_case "message: request construction" `Quick test_message_request;
    Alcotest.test_case "message: content-length maintenance" `Quick
      test_message_response_content_length;
    Alcotest.test_case "message: cacheability" `Quick test_message_cacheable;
    Alcotest.test_case "message: copies are isolated" `Quick test_message_copy_isolation;
    Alcotest.test_case "codec: request roundtrip" `Quick test_codec_request_roundtrip;
    Alcotest.test_case "codec: response roundtrip" `Quick test_codec_response_roundtrip;
    Alcotest.test_case "codec: malformed input" `Quick test_codec_malformed;
    QCheck_alcotest.to_alcotest url_roundtrip_prop;
    QCheck_alcotest.to_alcotest url_to_string_prop;
    QCheck_alcotest.to_alcotest ip_to_string_prop;
    QCheck_alcotest.to_alcotest codec_roundtrip_prop;
    QCheck_alcotest.to_alcotest request_wire_size_prop;
    QCheck_alcotest.to_alcotest response_wire_size_prop;
    Alcotest.test_case "codec: wire size of a 350 KB body" `Quick test_wire_size_large_body;
    Alcotest.test_case "codec: wire size of a 3-chunk body" `Quick test_wire_size_chunked_body;
    Alcotest.test_case "range: parse" `Quick test_range_parse;
    Alcotest.test_case "range: resolve" `Quick test_range_resolve;
    Alcotest.test_case "range: apply to a response" `Quick test_range_apply;
    Alcotest.test_case "url: to_string cases" `Quick test_url_to_string_cases;
    QCheck_alcotest.to_alcotest headers_match_reference_prop;
    QCheck_alcotest.to_alcotest http_date_format_prop;
    QCheck_alcotest.to_alcotest response_expiry_prop;
  ]
