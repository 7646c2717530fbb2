type static_resource = {
  content_type : string;
  max_age : int;
  body : string;
  etag : string;
  modified : float; (* installation time *)
}

type dynamic_route = {
  prefix : string;
  cpu : float;
  handler : Nk_http.Message.request -> Nk_http.Message.response;
}

type t = {
  net : Nk_sim.Net.t;
  sim : Nk_sim.Sim.t;
  sign_key : string option;
  origin_host : Nk_sim.Net.host;
  statics : (string, static_resource) Hashtbl.t;
  mutable dynamics : dynamic_route list; (* sorted by prefix length, longest first *)
  mutable requests : int;
  mutable bytes : int;
}

let host t = t.origin_host

(* Origin CPU charged per static request: an Apache request cycle on
   the reference machine. *)
let static_cpu = 0.0009

let freshness_headers t resource =
  let common =
    [
      ("Date", Nk_http.Http_date.format (Nk_sim.Sim.now t.sim));
      ("ETag", resource.etag);
      ("Last-Modified", Nk_http.Http_date.format resource.modified);
    ]
  in
  if resource.max_age > 0 then
    ("Cache-Control", Printf.sprintf "max-age=%d" resource.max_age) :: common
  else ("Cache-Control", "no-store") :: common

let static_response t resource =
  let headers = ("Content-Type", resource.content_type) :: freshness_headers t resource in
  let resp = Nk_http.Message.response ~headers ~body:resource.body () in
  (match t.sign_key with
   | Some key when resource.max_age > 0 ->
     (* §6: integrity requires absolute expiration; replace the relative
        max-age with a signed absolute Expires. *)
     Nk_http.Message.remove_resp_header resp "Cache-Control";
     Nk_http.Message.set_resp_header resp "Expires"
       (Nk_http.Http_date.format (resource.modified +. float_of_int resource.max_age));
     (match Nk_integrity.Integrity.sign ~key resp with
      | Ok () -> ()
      | Error _ -> ())
   | _ -> ());
  resp

(* RFC 2616 conditional GET: a matching validator yields 304 with
   refreshed freshness headers and no body. *)
let not_modified t resource =
  Nk_http.Message.response ~status:304 ~headers:(freshness_headers t resource) ()

let conditional_match (req : Nk_http.Message.request) resource =
  match Nk_http.Message.req_header req "If-None-Match" with
  | Some tag -> tag = resource.etag
  | None -> (
    match
      Option.bind (Nk_http.Message.req_header req "If-Modified-Since") Nk_http.Http_date.parse
    with
    | Some since -> resource.modified <= since
    | None -> false)

let handle t (req : Nk_http.Message.request) k =
  t.requests <- t.requests + 1;
  let path = req.Nk_http.Message.url.Nk_http.Url.path in
  let respond resp =
    t.bytes <- t.bytes + Nk_http.Message.content_length resp;
    k resp
  in
  (* The fault plan can make this origin fail outright or slow down for
     a window; a failing origin still charges its base CPU (it answers,
     just with errors). *)
  let state =
    match Nk_sim.Net.faults t.net with
    | None -> `Ok
    | Some plan ->
      Nk_faults.Plan.origin_state plan ~now:(Nk_sim.Sim.now t.sim)
        ~host:(Nk_sim.Net.host_name t.origin_host)
  in
  let slowdown = match state with `Slow f -> f | `Ok | `Fail -> 1.0 in
  match state with
  | `Fail ->
    Nk_sim.Net.cpu_run t.net t.origin_host ~seconds:static_cpu (fun () ->
        respond (Nk_http.Message.error_response 503))
  | `Ok | `Slow _ -> (
    match Hashtbl.find_opt t.statics path with
    | Some resource ->
      Nk_sim.Net.cpu_run t.net t.origin_host ~seconds:(static_cpu *. slowdown) (fun () ->
          if conditional_match req resource then respond (not_modified t resource)
          else respond (static_response t resource))
    | None -> (
      match
        List.find_opt (fun r -> Nk_util.Strutil.starts_with ~prefix:r.prefix path) t.dynamics
      with
      | Some route ->
        Nk_sim.Net.cpu_run t.net t.origin_host ~seconds:(route.cpu *. slowdown) (fun () ->
            respond (route.handler req))
      | None -> respond (Nk_http.Message.error_response 404)))

let create ~web ~host ?sign_key () =
  let t =
    {
      net = Nk_sim.Httpd.net web;
      sim = Nk_sim.Httpd.sim web;
      sign_key;
      origin_host = host;
      statics = Hashtbl.create 16;
      dynamics = [];
      requests = 0;
      bytes = 0;
    }
  in
  Nk_sim.Httpd.serve web ~host
    ~hostnames:[ Nk_sim.Net.host_name host ]
    (fun req k -> handle t req k);
  t

let set_static t ~path ?(content_type = "text/html") ~max_age body =
  Hashtbl.replace t.statics path
    {
      content_type;
      max_age;
      body;
      etag = Printf.sprintf "\"%s\"" (String.sub (Nk_crypto.Sha256.digest_hex body) 0 16);
      modified = Nk_sim.Sim.now t.sim;
    }

let set_dynamic t ~prefix ~cpu handler =
  let dynamics = { prefix; cpu; handler } :: List.filter (fun r -> r.prefix <> prefix) t.dynamics in
  t.dynamics <-
    List.sort (fun a b -> compare (String.length b.prefix) (String.length a.prefix)) dynamics

let request_count t = t.requests

let bytes_served t = t.bytes
