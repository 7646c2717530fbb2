type mode = Php | Nakika

let host = "www.spec99.org"

let users = 100

let static_files = 30

let static_body i =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "<html><head><title>File %d</title></head><body>" i);
  for line = 1 to 80 do
    Buffer.add_string buf
      (Printf.sprintf "<p>SPECweb99 class file %d line %d: static workload content.</p>" i line)
  done;
  Buffer.add_string buf "</body></html>";
  Buffer.contents buf

let profile_of user =
  Printf.sprintf "age=%d;plan=standard;mail=%s@example.org" (20 + (Hashtbl.hash user mod 50)) user

(* What the dynamic pages compute, shared by both variants so the PHP
   origin and the edge NKP produce comparable content. *)
let register_page ~user ~registered =
  Printf.sprintf "<html><body><h1>Registration</h1><p>%s: %s</p></body></html>" user
    (if registered then "registered" else "already registered")

let profile_page ~user ~profile =
  Printf.sprintf "<html><body><h1>Profile %s</h1><p>%s</p></body></html>" user
    (Option.value profile ~default:"unknown user")

(* SPECweb99 dynamic scripts do real per-request work (ad rotation,
   custom-GET processing); model it with a deterministic compute loop
   so the edge pays CPU comparable to the PHP origin. *)
let dynamic_work =
  {|var acc = 0;
for (var w = 0; w < 10000; w++) { acc = (acc * 31 + w) - ((acc * 31 + w) / 65521) * 65521; }|}

let register_nkp =
  Printf.sprintf
    {|<html><body><h1>Registration</h1><p><?nkp
%s
var user = Request.query("user");
var profile = Request.query("profile");
var key = "user:" + user;
var existing = HardState.get(key);
var message = user + ": already registered";
if (existing == null) {
  HardState.put(key, profile);
  message = user + ": registered";
}
message
?></p></body></html>|}
    dynamic_work

let profile_nkp =
  Printf.sprintf
    {|<html><body><h1>Profile <?nkp Request.query("user") ?></h1><p><?nkp
%s
var prof = HardState.get("user:" + Request.query("user"));
(prof == null) ? "unknown user" : prof
?></p></body></html>|}
    dynamic_work

let nakika_js =
  Printf.sprintf
    {|
var p = new Policy();
p.url = ["%s/nkp/"];
p.nextStages = ["http://nakika.net/nkp.js"];
p.register();
|}
    host

let install_origin origin =
  (* PHP-style dynamic handlers: origin CPU per request, uncacheable. *)
  let registered : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let q (req : Nk_http.Message.request) name =
    Option.value (Nk_http.Url.query_get req.Nk_http.Message.url name) ~default:""
  in
  let dynamic_response body =
    Nk_http.Message.response
      ~headers:[ ("Content-Type", "text/html"); ("Cache-Control", "no-store") ]
      ~body ()
  in
  Nk_node.Origin.set_dynamic origin ~prefix:"/cgi/register" ~cpu:0.03 (fun req ->
      let user = q req "user" in
      let fresh = not (Hashtbl.mem registered user) in
      if fresh then Hashtbl.replace registered user (q req "profile");
      dynamic_response (register_page ~user ~registered:fresh));
  Nk_node.Origin.set_dynamic origin ~prefix:"/cgi/profile" ~cpu:0.03 (fun req ->
      let user = q req "user" in
      dynamic_response (profile_page ~user ~profile:(Hashtbl.find_opt registered user)));
  (* Na Kika Pages sources: static, cacheable; the edge executes them. *)
  Nk_node.Origin.set_static origin ~path:"/nkp/register.nkp" ~content_type:"text/nkp"
    ~max_age:300 register_nkp;
  Nk_node.Origin.set_static origin ~path:"/nkp/profile.nkp" ~content_type:"text/nkp"
    ~max_age:300 profile_nkp;
  Nk_node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
    ~max_age:300 nakika_js;
  for i = 1 to static_files do
    Nk_node.Origin.set_static origin
      ~path:(Printf.sprintf "/files/f%d.html" i)
      ~content_type:"text/html" ~max_age:600 (static_body i)
  done

let make_request ~rng ~mode =
  let r = Nk_util.Prng.int rng 100 in
  if r < 20 then
    Nk_http.Message.request
      (Printf.sprintf "http://%s/files/f%d.html" host (1 + Nk_util.Prng.int rng static_files))
  else begin
    let user = Printf.sprintf "u%d" (Nk_util.Prng.int rng users) in
    let register = r < 36 (* 20% of the dynamic requests are registrations *) in
    match (mode, register) with
    | Php, true ->
      Nk_http.Message.request
        (Printf.sprintf "http://%s/cgi/register?user=%s&profile=%s" host user (profile_of user))
    | Php, false ->
      Nk_http.Message.request (Printf.sprintf "http://%s/cgi/profile?user=%s" host user)
    | Nakika, true ->
      Nk_http.Message.request
        (Printf.sprintf "http://%s/nkp/register.nkp?user=%s&profile=%s" host user
           (profile_of user))
    | Nakika, false ->
      Nk_http.Message.request (Printf.sprintf "http://%s/nkp/profile.nkp?user=%s" host user)
  end
