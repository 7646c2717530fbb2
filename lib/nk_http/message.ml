type request = {
  mutable meth : Method_.t;
  mutable url : Url.t;
  mutable headers : Headers.t;
  mutable body : Body.t;
  mutable client : Ip.client;
}

type response = {
  mutable status : Status.t;
  mutable resp_headers : Headers.t;
  mutable resp_body : Body.t;
}

let anonymous_client : Ip.client = { ip = Ip.of_int32 0l; hostname = None }

let request ?(meth = Method_.GET) ?(headers = []) ?(body = "") ?(client = anonymous_client) url =
  {
    meth;
    url = Url.parse_exn url;
    headers = Headers.of_list headers;
    body = Body.of_string body;
    client;
  }

let response ?(status = Status.ok) ?(headers = []) ?(body = "") () =
  let headers = Headers.of_list headers in
  let headers =
    if body <> "" && not (Headers.mem headers "Content-Length") then
      Headers.set headers "Content-Length" (string_of_int (String.length body))
    else headers
  in
  { status; resp_headers = headers; resp_body = Body.of_string body }

let error_response status =
  let body = Printf.sprintf "%d %s" status (Status.reason status) in
  response ~status
    ~headers:
      [ ("Content-Type", "text/plain"); ("Content-Length", string_of_int (String.length body)) ]
    ~body ()

let copy_request r =
  { meth = r.meth; url = r.url; headers = r.headers; body = r.body; client = r.client }

let copy_response r =
  { status = r.status; resp_headers = r.resp_headers; resp_body = r.resp_body }

let req_header r name = Headers.get r.headers name

let set_req_header r name value = r.headers <- Headers.set r.headers name value

let resp_header r name = Headers.get r.resp_headers name

let set_resp_header r name value = r.resp_headers <- Headers.set r.resp_headers name value

let remove_resp_header r name = r.resp_headers <- Headers.remove r.resp_headers name

let content_type r = resp_header r "Content-Type"

let content_length r = Body.length r.resp_body

let set_body r body =
  r.resp_body <- Body.of_string body;
  set_resp_header r "Content-Length" (string_of_int (String.length body))

(* Cache-Control is parsed once; Date and Expires only when it neither
   forbids caching nor gives a max-age. *)
let response_expiry ~now r =
  let cache_control =
    match resp_header r "Cache-Control" with
    | Some v -> Cache_control.parse v
    | None -> Cache_control.empty
  in
  let date () = Option.bind (resp_header r "Date") Http_date.parse in
  let expires () = Option.bind (resp_header r "Expires") Http_date.parse in
  Cache_control.expiry ~now ~date ~cache_control ~expires

let cache_expiry ~now req resp =
  if Method_.is_safe req.meth && resp.status = Status.ok then response_expiry ~now resp
  else None
