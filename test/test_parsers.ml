(* Parser totality: every parser that reads bytes from the network or
   from an operator answers [Error] on malformed input and never raises.
   Each property feeds arbitrary bytes and valid seeds with bytes
   flipped, cut out, duplicated or truncated. *)

open Core

let gen_input seeds =
  QCheck.Gen.(
    let junk = string_size ~gen:char (int_range 1 8) in
    let edit s =
      let n = String.length s in
      int_bound n >>= fun i ->
      int_bound (min 8 (n - i)) >>= fun len ->
      oneof
        [
          (* flip one byte *)
          (if i < n then map (fun c -> String.mapi (fun j x -> if j = i then c else x) s) char
           else return s);
          (* truncate *)
          return (String.sub s 0 i);
          (* cut a span out *)
          return (String.sub s 0 i ^ String.sub s (i + len) (n - i - len));
          (* insert junk *)
          map (fun j -> String.sub s 0 i ^ j ^ String.sub s i (n - i)) junk;
          (* duplicate a span *)
          return (String.sub s 0 (i + len) ^ String.sub s i (n - i));
        ]
    in
    let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
    oneof
      [
        string_size ~gen:char (int_bound 200);
        (oneofl seeds >>= fun s -> int_range 1 6 >>= fun k -> edits k s);
      ])

(* The property holds when [parse] returns at all: QCheck reports any
   exception, with the input that raised it. *)
let totality ~name seeds parse =
  QCheck.Test.make ~name:(name ^ ": arbitrary and mutated bytes never raise") ~count:500
    ~long_factor:10
    (QCheck.make ~print:(Printf.sprintf "%S") (gen_input seeds))
    (fun s ->
      ignore (parse s);
      true)

let request_seeds =
  [
    Http.Codec.encode_request
      (Http.Message.request ~meth:Http.Method_.POST
         ~headers:[ ("Host", "a.org"); ("X-NaKika-Deadline", "1.5") ]
         ~body:"k=v&w=1" "http://a.org:8080/p/q?x=1&y");
    Http.Codec.encode_request (Http.Message.request "http://www.example.edu/index.html");
  ]

let response_seeds =
  [
    Http.Codec.encode_response
      (Http.Message.response ~status:206
         ~headers:[ ("Content-Type", "text/html"); ("Cache-Control", "max-age=60") ]
         ~body:"<html>partial</html>" ());
    Http.Codec.encode_response (Http.Message.response ~status:304 ());
  ]

let json_seeds =
  [
    {|{"a": [1, -2.5e3, "xé\n\"", true, false, null], "b": {"c": {}}, "d": []}|};
    {|[0.5, "😀", {"k": "v"}]|};
  ]

let xml_seeds =
  [
    {|<?xml version="1.0"?><!-- c --><!DOCTYPE doc><doc a="1" b='2'>|}
    ^ {|<p>t &amp; &lt;<b>x</b></p><![CDATA[raw <tag>]]><?pi x?><e/></doc>|};
    {|<lecture module="3"><title>Anatomy</title><part n="1">text</part></lecture>|};
  ]

let image_seeds =
  let img = Vocab.Image.synthesize ~width:6 ~height:4 ~seed:3 in
  [ Vocab.Image.encode img Vocab.Image.Raw; Vocab.Image.encode img Vocab.Image.Rle ]

let plan_seeds =
  [
    {|# a plan
node "*.nakika.net" {
  capacity {
    admission = 64
    target = 500ms
  }
  diffusion { enabled = on }
  quarantine {
    base = 30s
    max = 4m
  }
}

site "video.example" {
  share >= 30%
  fuel <= 400_000
  heap <= 8mb
}

site "shop.example" {
  quarantine base 2s max 5m
}
|};
  ]

let request_envelope_seeds =
  [
    Diffusion.Offload.encode_request_envelope
      {
        Diffusion.Offload.id = 7;
        origin_node = "nk1.nakika.net";
        origin_incarnation = 1;
        target = "nk2.nakika.net";
        target_incarnation = 2;
        site = "a.org";
        script_hash = String.make 64 'f';
        request = Http.Message.request ~headers:[ ("Host", "a.org") ] "http://a.org/p?x=1";
      };
  ]

(* What [Offload.reply] publishes: an executed outcome carrying the
   response, and a rejection. *)
let reply_envelope_seeds =
  [
    "nk-offload-rep/1\nid=7\nresponder=nk2.nakika.net\nresponder-inc=2\noutcome=executed\n"
    ^ "fuel=1200\nheap=4096\n\n"
    ^ Http.Codec.encode_response
        (Http.Message.response ~headers:[ ("Content-Type", "text/html") ] ~body:"<p>x</p>" ());
    "nk-offload-rep/1\nid=8\nresponder=nk3.nakika.net\nresponder-inc=1\noutcome=rejected\n"
    ^ "reason=stale-incarnation\n\n";
  ]

let url_seeds = [ "http://a.org:8080/p/q?x=1&y&z=%41"; "www.example.edu/index.html"; "http://h/" ]

let range_seeds = [ "bytes=0-499"; "bytes=500-"; "bytes=-200" ]

let http_date_seeds = [ Http.Http_date.format 784111777.0; Http.Http_date.format Sim.Sim.epoch ]

let cache_control_seeds =
  [ "max-age=60, s-maxage=30, stale-if-error=300"; "no-store"; "private, no-cache=\"Set-Cookie\"" ]

let cookie_seeds = [ "sid=xyz; lang=en"; "a=1;b=2; empty=; =novalue" ]

let log_line_seeds =
  [
    "128.122.1.1 - - [05/Jul/2006:14:30:00 +0000] \"GET /content/m1/lec1.xml?student=s1 HTTP/1.1\" "
    ^ "200 9417";
    "10.0.0.2 - alice [31/Dec/2005:23:59:59 -0500] \"POST /form HTTP/1.0\" 302 -";
  ]

(* A 9-byte header may claim 65535 x 65535 pixels; decoding must reject
   a payload that cannot fill them before sizing any buffer by them. *)
let test_image_header_larger_than_payload () =
  let claim = "NKI1\xff\xff\xff\xff\x01" in
  let (), allocated =
    Alloc.gc_allocated (fun () ->
        Alcotest.(check bool) "size mismatch" true
          (Vocab.Image.decode (claim ^ "\x05a") = Error "RLE payload size mismatch");
        Alcotest.(check bool) "zero run still reported" true
          (Vocab.Image.decode (claim ^ "\x05a\x00b") = Error "zero-length RLE run");
        Alcotest.(check bool) "odd length still reported" true
          (Vocab.Image.decode (claim ^ "\x05") = Error "RLE payload has odd length"))
  in
  Alcotest.(check bool) "no pixel buffer" true (allocated < 1e6)

(* The seeds the newer properties mutate are valid inputs. *)
let test_seeds_decode () =
  let ok name seeds decode =
    List.iter (fun s -> Alcotest.(check bool) (name ^ " " ^ String.escaped s) true (decode s)) seeds
  in
  let is_ok = function Ok _ -> true | Error _ -> false in
  ok "request envelope" request_envelope_seeds (fun s ->
      is_ok (Diffusion.Offload.decode_request_envelope s));
  ok "reply envelope" reply_envelope_seeds (fun s ->
      is_ok (Diffusion.Offload.decode_reply_envelope s));
  ok "url" url_seeds (fun s -> is_ok (Http.Url.parse s));
  ok "range" range_seeds (fun s -> Http.Range.parse s <> None);
  ok "date" http_date_seeds (fun s -> Http.Http_date.parse s <> None);
  ok "cache-control" [ List.hd cache_control_seeds ] (fun s ->
      (Http.Cache_control.parse s).Http.Cache_control.max_age = Some 60);
  ok "cookie" cookie_seeds (fun s -> Http.Cookie.parse s <> []);
  ok "log line" log_line_seeds (fun s -> is_ok (Workload.Logreplay.parse_line s))

let suite =
  Alcotest.test_case "Image.decode: oversized header, short payload" `Quick
    test_image_header_larger_than_payload
  :: List.map QCheck_alcotest.to_alcotest
    [
      totality ~name:"Codec.decode_request" request_seeds Http.Codec.decode_request;
      totality ~name:"Codec.decode_response" response_seeds Http.Codec.decode_response;
      totality ~name:"Json.parse" json_seeds Vocab.Json.parse;
      totality ~name:"Xml.parse" xml_seeds Vocab.Xml.parse;
      totality ~name:"Image.decode" image_seeds Vocab.Image.decode;
      totality ~name:"Provision.parse" plan_seeds Provision.Provision.parse;
      totality ~name:"Offload.decode_request_envelope" request_envelope_seeds
        Diffusion.Offload.decode_request_envelope;
      totality ~name:"Offload.decode_reply_envelope" reply_envelope_seeds
        Diffusion.Offload.decode_reply_envelope;
      totality ~name:"Url.parse" url_seeds Http.Url.parse;
      totality ~name:"Range.parse" range_seeds Http.Range.parse;
      totality ~name:"Http_date.parse" http_date_seeds Http.Http_date.parse;
      totality ~name:"Cache_control.parse" cache_control_seeds Http.Cache_control.parse;
      totality ~name:"Cookie.parse" cookie_seeds Http.Cookie.parse;
      totality ~name:"Logreplay.parse_line" log_line_seeds Workload.Logreplay.parse_line;
    ]
  @ [ Alcotest.test_case "decoder seeds are valid inputs" `Quick test_seeds_decode ]
