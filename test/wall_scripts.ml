(* Administrative wall scripts (§3.1, §3.2) that the tests install as
   client or server walls. *)

let js_string_list urls =
  "[" ^ String.concat ", " (List.map (fun u -> Printf.sprintf "%S" u) urls) ^ "]"

(* Terminates requests for the given URL prefixes with [status]; every
   other request matches an empty catch-all policy. *)
let deny_urls_wall ~urls ~status =
  Printf.sprintf
    {|
var p = new Policy();
p.url = %s;
p.onRequest = function() {
  Request.terminate(%d);
}
p.register();

var q = new Policy();
q.onRequest = function() { };
q.register();
|}
    (js_string_list urls) status

(* Fig. 5 verbatim: reject access to the listed URL prefixes unless the
   client is local to the hosting organization (401). *)
let local_only_wall ~urls =
  Printf.sprintf
    {|
var p = new Policy();
p.url = %s;
p.onRequest = function() {
  if (!System.isLocal(Request.clientIP)) {
    Request.terminate(401);
  }
}
p.register();

var q = new Policy();
q.onRequest = function() { };
q.register();
|}
    (js_string_list urls)
