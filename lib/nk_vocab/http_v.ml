open Nk_script.Value

exception Terminate_request of Nk_http.Message.response

let response_to_value (resp : Nk_http.Message.response) =
  let o = new_obj () in
  obj_set o "status" (Vnum (float_of_int resp.Nk_http.Message.status));
  obj_set o "contentType"
    (match Nk_http.Message.content_type resp with Some ct -> Vstr ct | None -> Vnull);
  obj_set o "body" (Vstr (Nk_http.Body.to_string resp.Nk_http.Message.resp_body));
  obj_set o "header"
    (native "header" (fun _ args ->
         match Nk_http.Message.resp_header resp (sarg 0 args) with
         | Some v -> Vstr v
         | None -> Vnull));
  Vobj o

(* Every call builds its object with the same properties in the same
   order, so the object's shape (hidden class) is resolved once, here:
   a call allocates the object at that shape and fills its slots by
   position, with no interning and no shape walk. Each call still builds
   a fresh object, so a script that kept an earlier [Request] keeps
   seeing the earlier request. The mutators refresh their properties
   with [obj_set_atom], which also works after a script has reshaped the
   object. *)
let shape_of names =
  let atoms = Array.of_list (List.map Nk_script.Atom.intern names) in
  (Array.fold_left shape_transition root_shape atoms, atoms)

(* Slots 0-4 are data refreshed by [setUrl] and [setMethod]. *)
let request_shape, request_atoms =
  shape_of
    [
      "url"; "host"; "path"; "method"; "clientIP"; "header"; "setHeader"; "setUrl"; "setMethod";
      "cookie"; "query"; "terminate"; "redirect"; "respond";
    ]

let request_data set (req : Nk_http.Message.request) =
  let url = req.Nk_http.Message.url in
  set 0 (Vstr (Nk_http.Url.to_string url));
  set 1 (Vstr url.Nk_http.Url.host);
  set 2 (Vstr url.Nk_http.Url.path);
  set 3 (Vstr (Nk_http.Method_.to_string req.Nk_http.Message.meth));
  set 4 (Vstr (Nk_http.Ip.to_string req.Nk_http.Message.client.Nk_http.Ip.ip))

let install_request ctx (req : Nk_http.Message.request) =
  let o = new_obj_with_shape request_shape in
  let slots = o.slots in
  request_data (Array.unsafe_set slots) req;
  let refresh () = request_data (fun i v -> obj_set_atom o request_atoms.(i) v) req in
  slots.(5) <-
    native "header" (fun _ args ->
        match Nk_http.Message.req_header req (sarg 0 args) with
        | Some v -> Vstr v
        | None -> Vnull);
  slots.(6) <-
    native "setHeader" (fun _ args ->
        Nk_http.Message.set_req_header req (sarg 0 args) (sarg 1 args);
        Vundefined);
  slots.(7) <-
    native "setUrl" (fun _ args ->
        (match Nk_http.Url.parse (sarg 0 args) with
         | Ok url -> req.Nk_http.Message.url <- url
         | Error e -> error "setUrl: %s" e);
        refresh ();
        Vundefined);
  slots.(8) <-
    native "setMethod" (fun _ args ->
        req.Nk_http.Message.meth <- Nk_http.Method_.of_string (sarg 0 args);
        refresh ();
        Vundefined);
  slots.(9) <-
    native "cookie" (fun _ args ->
        match Nk_http.Message.req_header req "Cookie" with
        | None -> Vnull
        | Some header -> (
          match List.assoc_opt (sarg 0 args) (Nk_http.Cookie.parse header) with
          | Some v -> Vstr v
          | None -> Vnull));
  slots.(10) <-
    native "query" (fun _ args ->
        match Nk_http.Url.query_get req.Nk_http.Message.url (sarg 0 args) with
        | Some v -> Vstr v
        | None -> Vnull);
  slots.(11) <-
    native "terminate" (fun _ args ->
        let status = match arg 0 args with Vundefined -> 403 | v -> to_int v in
        raise (Terminate_request (Nk_http.Message.error_response status)));
  slots.(12) <-
    native "redirect" (fun _ args ->
        let target = sarg 0 args in
        let resp = Nk_http.Message.response ~status:302 ~headers:[ ("Location", target) ] () in
        raise (Terminate_request resp));
  slots.(13) <-
    native "respond" (fun _ args ->
        let status = to_int (arg 0 args) in
        let content_type = sarg 1 args in
        let body = match arg 2 args with Vbytes b -> bytes_to_string b | v -> to_string v in
        let resp =
          Nk_http.Message.response ~status ~headers:[ ("Content-Type", content_type) ] ~body ()
        in
        raise (Terminate_request resp));
  Nk_script.Interp.define_global ctx "Request" (Vobj o)

(* The strings the handler wrote, newest first. They are kept, not
   copied: a handler that writes once hands its string straight to the
   body. *)
type response_sink = { mutable written : string list }

(* Slot 0 is refreshed by [setStatus], slot 1 by a Content-Type
   [setHeader]. *)
let response_shape, response_atoms =
  shape_of
    [
      "status"; "contentType"; "contentLength"; "read"; "rewind"; "write"; "getHeader"; "setHeader";
      "setStatus";
    ]

let install_response ctx (resp : Nk_http.Message.response) =
  let sink = { written = [] } in
  let o = new_obj_with_shape response_shape in
  let slots = o.slots in
  (* The body [read()] has yet to return: all of it until the first
     read, then nothing; "" reads as null. *)
  let unread = ref (Nk_http.Body.to_string resp.Nk_http.Message.resp_body) in
  slots.(0) <- Vnum (float_of_int resp.Nk_http.Message.status);
  slots.(1) <- (match Nk_http.Message.content_type resp with Some ct -> Vstr ct | None -> Vnull);
  slots.(2) <- Vnum (float_of_int (Nk_http.Message.content_length resp));
  slots.(3) <-
    native "read" (fun _ _ ->
        let body = !unread in
        if body = "" then Vnull
        else begin
          unread := "";
          Vstr body
        end);
  slots.(4) <-
    native "rewind" (fun _ _ ->
        unread := Nk_http.Body.to_string resp.Nk_http.Message.resp_body;
        Vundefined);
  slots.(5) <-
    native "write" (fun _ args ->
        (* A byte array stays mutable after the call, so it is copied. *)
        let data = match arg 0 args with Vbytes b -> bytes_to_string b | v -> to_string v in
        sink.written <- data :: sink.written;
        Vundefined);
  slots.(6) <-
    native "getHeader" (fun _ args ->
        match Nk_http.Message.resp_header resp (sarg 0 args) with
        | Some v -> Vstr v
        | None -> Vnull);
  slots.(7) <-
    native "setHeader" (fun _ args ->
        Nk_http.Message.set_resp_header resp (sarg 0 args) (sarg 1 args);
        (* Keep the snapshot property coherent for subsequent reads. *)
        if String.lowercase_ascii (sarg 0 args) = "content-type" then
          obj_set_atom o response_atoms.(1) (Vstr (sarg 1 args));
        Vundefined);
  slots.(8) <-
    native "setStatus" (fun _ args ->
        resp.Nk_http.Message.status <- to_int (arg 0 args);
        obj_set_atom o response_atoms.(0) (Vnum (float_of_int resp.Nk_http.Message.status));
        Vundefined);
  Nk_script.Interp.define_global ctx "Response" (Vobj o);
  sink

let apply_writes sink (resp : Nk_http.Message.response) =
  let set body =
    resp.Nk_http.Message.resp_body <- Nk_http.Body.of_string body;
    Nk_http.Message.set_resp_header resp "Content-Length" (string_of_int (String.length body))
  in
  match sink.written with
  | [] -> ()
  | [ body ] -> set body
  | parts -> set (String.concat "" (List.rev parts))
