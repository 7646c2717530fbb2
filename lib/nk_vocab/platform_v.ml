open Nk_script.Value

let system_object (host : Hostcall.t) =
  let o = new_obj () in
  obj_set o "isLocal" (native "isLocal" (fun _ args -> Vbool (host.is_local (sarg 0 args))));
  obj_set o "time" (native "time" (fun _ _ -> Vnum (host.now ())));
  obj_set o "site" (Vstr host.site);
  obj_set o "congestion"
    (native "congestion" (fun _ args -> Vnum (host.congestion (sarg 0 args))));
  obj_set o "log"
    (native "log" (fun _ args ->
         host.log (sarg 0 args);
         Vundefined));
  Vobj o

let cache_object (host : Hostcall.t) =
  let o = new_obj () in
  obj_set o "lookup"
    (native "lookup" (fun _ args ->
         match host.cache_lookup (sarg 0 args) with
         | Some resp -> Http_v.response_to_value resp
         | None -> Vnull));
  obj_set o "store"
    (native "store" (fun _ args ->
         let key = sarg 0 args in
         let content_type = sarg 1 args in
         let body = match arg 2 args with Vbytes b -> bytes_to_string b | v -> to_string v in
         let ttl = to_number (arg 3 args) in
         let ttl = if Float.is_nan ttl || ttl <= 0.0 then 60.0 else ttl in
         let resp =
           Nk_http.Message.response ~headers:[ ("Content-Type", content_type) ] ~body ()
         in
         host.cache_store ~key ~ttl resp;
         Vundefined));
  Vobj o

let hard_state_object (host : Hostcall.t) =
  let o = new_obj () in
  obj_set o "get"
    (native "get" (fun _ args ->
         match host.hard_state_get ~key:(sarg 0 args) with Some v -> Vstr v | None -> Vnull));
  obj_set o "put"
    (native "put" (fun _ args -> Vbool (host.hard_state_put ~key:(sarg 0 args) (sarg 1 args))));
  obj_set o "remove"
    (native "remove" (fun _ args ->
         host.hard_state_delete ~key:(sarg 0 args);
         Vundefined));
  obj_set o "keys"
    (native "keys" (fun _ args ->
         let prefix = match arg 0 args with Vundefined -> "" | v -> to_string v in
         Varr (new_arr (List.map (fun k -> Vstr k) (host.hard_state_keys ~prefix)))));
  Vobj o

let messages_object (host : Hostcall.t) =
  let o = new_obj () in
  obj_set o "publish"
    (native "publish" (fun _ args ->
         host.publish ~topic:(sarg 0 args) (sarg 1 args);
         Vundefined));
  Vobj o

let crypto_object () =
  let o = new_obj () in
  obj_set o "sha256"
    (native "sha256" (fun _ args -> Vstr (Nk_crypto.Sha256.digest_hex (sarg 0 args))));
  obj_set o "hmac"
    (native "hmac" (fun _ args ->
         Vstr (Nk_crypto.Hmac.mac_hex ~key:(sarg 0 args) (sarg 1 args))));
  Vobj o

let log_object (host : Hostcall.t) =
  let o = new_obj () in
  obj_set o "enable"
    (native "enable" (fun _ args ->
         host.enable_access_log ~url:(sarg 0 args);
         Vundefined));
  Vobj o

let install (host : Hostcall.t) ctx =
  Nk_script.Interp.define_global ctx "System" (system_object host);
  Nk_script.Interp.define_global ctx "Cache" (cache_object host);
  Nk_script.Interp.define_global ctx "HardState" (hard_state_object host);
  Nk_script.Interp.define_global ctx "Messages" (messages_object host);
  Nk_script.Interp.define_global ctx "Crypto" (crypto_object ());
  Nk_script.Interp.define_global ctx "Log" (log_object host);
  Nk_script.Interp.define_global ctx "fetchResource"
    (native "fetchResource" (fun _ args ->
         let url = sarg 0 args in
         match Nk_http.Url.parse url with
         | Error e -> error "fetchResource: %s" e
         | Ok _ ->
           let meth =
             match arg 1 args with
             | Vundefined -> Nk_http.Method_.GET
             | v -> Nk_http.Method_.of_string (to_string v)
           in
           let body = match arg 2 args with Vundefined -> "" | v -> to_string v in
           let req = Nk_http.Message.request ~meth ~body url in
           Http_v.response_to_value (host.fetch req)))

let install_all host ?seed ctx =
  Nk_script.Builtins.install ?seed ctx;
  Image_v.install ctx;
  Xml_v.install ctx;
  Regex_v.install ctx;
  Json_v.install ctx;
  Movie_v.install ctx;
  install host ctx
