type t = {
  scheme : string;
  host : string;
  port : int;
  path : string;
  query : (string * string) list;
}

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match Nk_util.Strutil.split_first '=' kv with
             | Some (k, v) -> Some (k, v)
             | None -> Some (kv, ""))

let parse s =
  let s, scheme =
    match Nk_util.Strutil.index_sub s ~sub:"://" ~start:0 with
    | Some i -> (String.sub s (i + 3) (String.length s - i - 3), String.sub s 0 i)
    | None -> (s, "http")
  in
  if s = "" then Error "empty URL"
  else begin
    let hostport, rest =
      match String.index_opt s '/' with
      | Some i -> (String.sub s 0 i, String.sub s i (String.length s - i))
      | None -> (s, "/")
    in
    let path, query =
      match Nk_util.Strutil.split_first '?' rest with
      | Some (p, q) -> (p, parse_query q)
      | None -> (rest, [])
    in
    let host, port =
      match Nk_util.Strutil.split_first ':' hostport with
      | Some (h, p) -> (
        match int_of_string_opt p with
        | Some port when port > 0 && port < 65536 -> (h, port)
        | _ -> (hostport, -1))
      | None -> (hostport, 80)
    in
    if port = -1 then Error ("bad port in URL: " ^ hostport)
    else if host = "" then Error "empty host"
    else Ok { scheme; host = String.lowercase_ascii host; port; path; query }
  end

let parse_exn s =
  match parse s with Ok u -> u | Error e -> invalid_arg ("Url.parse_exn: " ^ e)

let port_suffix t = if t.port = 80 then "" else ":" ^ string_of_int t.port

(* [String.length (to_string t)] by the same rules: each query item
   costs one separator ('?' for the first, '&' after), then "k" or
   "k=v". *)
let length t =
  let item n (k, v) = n + 1 + String.length k + if v = "" then 0 else 1 + String.length v in
  String.length t.scheme + 3 + String.length t.host + String.length (port_suffix t)
  + String.length t.path
  + List.fold_left item 0 t.query

let to_string t =
  let buf = Buffer.create (length t) in
  let add = Buffer.add_string buf in
  add t.scheme;
  add "://";
  add t.host;
  add (port_suffix t);
  add t.path;
  List.iteri
    (fun i (k, v) ->
      Buffer.add_char buf (if i = 0 then '?' else '&');
      add k;
      if v <> "" then begin
        Buffer.add_char buf '=';
        add v
      end)
    t.query;
  Buffer.contents buf

let query_get t k = List.assoc_opt k t.query

let site t = if t.port = 80 then t.host else Printf.sprintf "%s:%d" t.host t.port

let nakika_suffix = ".nakika.net"

let is_nakika t = Nk_util.Strutil.ends_with ~suffix:nakika_suffix t.host

let of_nakika t =
  if is_nakika t then
    Some { t with host = String.sub t.host 0 (String.length t.host - String.length nakika_suffix) }
  else None
