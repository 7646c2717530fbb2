let crlf = "\r\n"

let version = "HTTP/1.1"

(* Wire sizes are sums of field lengths, term for term what the
   encoders below write; they presize their buffer to the sum. *)

(* "k: v\r\n" per header, then the blank line. *)
let headers_length headers =
  List.fold_left
    (fun n (k, v) -> n + String.length k + 2 + String.length v + 2)
    2 (Headers.to_list headers)

(* "METHOD url HTTP/1.1\r\n" *)
let request_wire_size (r : Message.request) =
  String.length (Method_.to_string r.meth) + 1 + Url.length r.url + 1 + String.length version + 2
  + headers_length r.headers + Body.length r.body

(* "HTTP/1.1 code reason\r\n" *)
let response_wire_size (r : Message.response) =
  String.length version + 1 + String.length (string_of_int r.status) + 1
  + String.length (Status.reason r.status)
  + 2 + headers_length r.resp_headers + Body.length r.resp_body

(* Header lines, the blank line and the body chunks, then the bytes. *)
let finish buf headers body =
  List.iter (fun (k, v) -> Printf.bprintf buf "%s: %s%s" k v crlf) (Headers.to_list headers);
  Buffer.add_string buf crlf;
  List.iter (Buffer.add_string buf) (Body.chunks body);
  Buffer.contents buf

let encode_request (r : Message.request) =
  let buf = Buffer.create (request_wire_size r) in
  Printf.bprintf buf "%s %s %s%s" (Method_.to_string r.meth) (Url.to_string r.url) version crlf;
  finish buf r.headers r.body

let encode_response (r : Message.response) =
  let buf = Buffer.create (response_wire_size r) in
  Printf.bprintf buf "%s %d %s%s" version r.status (Status.reason r.status) crlf;
  finish buf r.resp_headers r.resp_body

let split_head s =
  match Nk_util.Strutil.index_sub s ~sub:"\r\n\r\n" ~start:0 with
  | None -> Error "missing header terminator"
  | Some i -> Ok (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))

let parse_header_lines lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Nk_util.Strutil.split_first ':' line with
      | Some (k, v) -> go ((String.trim k, String.trim v) :: acc) rest
      | None -> Error ("malformed header line: " ^ line))
  in
  go [] lines

let decode_request s =
  match split_head s with
  | Error e -> Error e
  | Ok (head, body) -> (
    match String.split_on_char '\r' head |> List.map (fun l -> Nk_util.Strutil.replace_all l ~sub:"\n" ~by:"") with
    | [] -> Error "empty request"
    | request_line :: header_lines -> (
      match String.split_on_char ' ' request_line with
      | [ meth; target; _version ] -> (
        match (Url.parse target, parse_header_lines header_lines) with
        | Ok url, Ok headers ->
          Ok
            {
              Message.meth = Method_.of_string meth;
              url;
              headers = Headers.of_list headers;
              body = Body.of_string body;
              client = { Ip.ip = Ip.of_int32 0l; hostname = None };
            }
        | Error e, _ -> Error e
        | _, Error e -> Error e)
      | _ -> Error ("malformed request line: " ^ request_line)))

let decode_response s =
  match split_head s with
  | Error e -> Error e
  | Ok (head, body) -> (
    match String.split_on_char '\r' head |> List.map (fun l -> Nk_util.Strutil.replace_all l ~sub:"\n" ~by:"") with
    | [] -> Error "empty response"
    | status_line :: header_lines -> (
      match String.split_on_char ' ' status_line with
      | _version :: code :: _reason -> (
        match (int_of_string_opt code, parse_header_lines header_lines) with
        | Some status, Ok headers ->
          Ok
            {
              Message.status;
              resp_headers = Headers.of_list headers;
              resp_body = Body.of_string body;
            }
        | None, _ -> Error ("bad status code: " ^ code)
        | _, Error e -> Error e)
      | _ -> Error ("malformed status line: " ^ status_line)))
