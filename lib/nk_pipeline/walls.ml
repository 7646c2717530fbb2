let default_client_wall =
  {|
var p = new Policy();
p.onRequest = function() { };
p.register();
|}

let default_server_wall =
  {|
var p = new Policy();
p.onResponse = function() { };
p.register();
|}

let rate_limit_wall ~max_per_client =
  Printf.sprintf
    {|
var p = new Policy();
p.onRequest = function() {
  var key = "ratelimit:" + Request.clientIP;
  var seen = HardState.get(key);
  var count = (seen == null) ? 0 : parseInt(seen);
  if (count >= %d) {
    Request.terminate(429);
  }
  HardState.put(key, String(count + 1));
}
p.register();
|}
    max_per_client
