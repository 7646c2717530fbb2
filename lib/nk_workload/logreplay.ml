type entry = {
  client : Nk_http.Ip.t;
  time : float;
  meth : Nk_http.Method_.t;
  path : string;
  status : int;
  bytes : int;
}

(* "10/Oct/2000:13:55:36 -0700" *)
let parse_clf_time s =
  match String.split_on_char ' ' s with
  | [ datetime; zone ] -> (
    match String.split_on_char ':' datetime with
    | [ date; hh; mm; ss ] -> (
      match String.split_on_char '/' date with
      | [ dd; mon; yyyy ] -> (
        match
          ( int_of_string_opt dd,
            Nk_http.Http_date.month_of_abbrev mon,
            int_of_string_opt yyyy,
            int_of_string_opt hh,
            int_of_string_opt mm,
            int_of_string_opt ss )
        with
        | Some d, Some month, Some y, Some hh, Some mm, Some ss ->
          let base = Nk_http.Http_date.of_civil ~y ~month ~d ~hh ~mm ~ss in
          (* zone: +hhmm / -hhmm; local = UTC + offset, so UTC = local - offset *)
          if String.length zone = 5 && (zone.[0] = '+' || zone.[0] = '-') then begin
            match
              ( int_of_string_opt (String.sub zone 1 2),
                int_of_string_opt (String.sub zone 3 2) )
            with
            | Some zh, Some zm ->
              let offset = float_of_int ((zh * 3600) + (zm * 60)) in
              Some (if zone.[0] = '+' then base -. offset else base +. offset)
            | _ -> None
          end
          else None
        | _ -> None)
      | _ -> None)
    | _ -> None)
  | _ -> None

let parse_line line =
  (* host ident user [time] "request" status bytes *)
  let ( let* ) r f = Result.bind r f in
  let* host, rest =
    match Nk_util.Strutil.split_first ' ' line with
    | Some x -> Ok x
    | None -> Error "missing fields"
  in
  let* time_str, rest =
    match
      ( Nk_util.Strutil.index_sub rest ~sub:"[" ~start:0,
        Nk_util.Strutil.index_sub rest ~sub:"]" ~start:0 )
    with
    | Some i, Some j when j > i ->
      Ok (String.sub rest (i + 1) (j - i - 1), String.sub rest (j + 1) (String.length rest - j - 1))
    | _ -> Error "missing [time]"
  in
  let* request_str, rest =
    match
      ( Nk_util.Strutil.index_sub rest ~sub:"\"" ~start:0,
        Option.bind
          (Nk_util.Strutil.index_sub rest ~sub:"\"" ~start:0)
          (fun i -> Nk_util.Strutil.index_sub rest ~sub:"\"" ~start:(i + 1)) )
    with
    | Some i, Some j when j > i ->
      Ok (String.sub rest (i + 1) (j - i - 1), String.sub rest (j + 1) (String.length rest - j - 1))
    | _ -> Error "missing \"request\""
  in
  let* client =
    match Nk_http.Ip.of_string host with
    | Ok ip -> Ok ip
    | Error _ -> Ok (Nk_http.Ip.of_int32 0l) (* hostnames in logs: keep anonymous *)
  in
  let* time =
    match parse_clf_time time_str with Some t -> Ok t | None -> Error "bad timestamp"
  in
  let* meth, path =
    match String.split_on_char ' ' request_str with
    | [ m; p; _ ] | [ m; p ] -> Ok (Nk_http.Method_.of_string m, p)
    | _ -> Error "bad request line"
  in
  let* status, bytes =
    match
      String.split_on_char ' ' (String.trim rest) |> List.filter (fun s -> s <> "")
    with
    | status :: bytes :: _ -> (
      match (int_of_string_opt status, int_of_string_opt bytes) with
      | Some s, Some b -> Ok (s, b)
      | Some s, None when bytes = "-" -> Ok (s, 0)
      | _ -> Error "bad status/bytes")
    | [ status ] -> (
      match int_of_string_opt status with
      | Some s -> Ok (s, 0)
      | None -> Error "bad status")
    | [] -> Error "missing status"
  in
  Ok { client; time; meth; path; status; bytes }

let parse_log text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  List.fold_left
    (fun (entries, errors) line ->
      match parse_line line with
      | Ok e -> (e :: entries, errors)
      | Error _ -> (entries, errors + 1))
    ([], 0) lines
  |> fun (entries, errors) -> (List.rev entries, errors)

let to_events ~host ~accelerate entries =
  match entries with
  | [] -> []
  | first :: _ ->
    List.map
      (fun e ->
        let url = Printf.sprintf "http://%s%s" host e.path in
        let req =
          Nk_http.Message.request ~meth:e.meth
            ~client:{ Nk_http.Ip.ip = e.client; hostname = None }
            url
        in
        ((e.time -. first.time) /. accelerate, req))
      entries

let synthesize ~rng ~start ~duration ~clients ~paths =
  if Array.length paths = 0 then invalid_arg "Logreplay.synthesize: no paths";
  let buf = Buffer.create 4096 in
  let events = ref [] in
  for c = 1 to clients do
    let t = ref (start +. Nk_util.Prng.float rng 2.0) in
    while !t < start +. duration do
      events := (!t, c) :: !events;
      t := !t +. 1.0 +. Nk_util.Prng.float rng 2.0
    done
  done;
  let events = List.sort compare !events in
  List.iter
    (fun (t, c) ->
      let secs = int_of_float t in
      let days = secs / 86400 in
      let rem = secs - (days * 86400) in
      (* Render the timestamp via the RFC 1123 formatter's fields. *)
      let rfc = Nk_http.Http_date.format t in
      (* "Thu, 01 Jan 1970 00:00:00 GMT" -> "01/Jan/1970:00:00:00 +0000" *)
      let dd = String.sub rfc 5 2
      and mon = String.sub rfc 8 3
      and yyyy = String.sub rfc 12 4 in
      ignore rem;
      Buffer.add_string buf
        (Printf.sprintf "10.0.%d.%d - - [%s/%s/%s:%02d:%02d:%02d +0000] \"GET %s HTTP/1.1\" 200 %d\n"
           (c / 250) (c mod 250) dd mon yyyy
           (secs mod 86400 / 3600)
           (secs mod 3600 / 60)
           (secs mod 60)
           (Nk_util.Prng.pick rng paths)
           (1000 + Nk_util.Prng.int rng 9000)))
    events;
  Buffer.contents buf
