let count_labels host = List.length (String.split_on_char '.' host)

let url ~pattern u =
  let pattern = String.lowercase_ascii pattern in
  let phost, ppath =
    match String.index_opt pattern '/' with
    | Some i -> (String.sub pattern 0 i, String.sub pattern i (String.length pattern - i))
    | None -> (pattern, "/")
  in
  let host = u.Nk_http.Url.host in
  let host_ok =
    phost = host || Nk_util.Strutil.ends_with ~suffix:("." ^ phost) host
  in
  if host_ok && Nk_util.Strutil.starts_with ~prefix:ppath u.Nk_http.Url.path then
    Some ((count_labels phost * 1024) + String.length ppath)
  else None

let client ~pattern (c : Nk_http.Ip.client) =
  if pattern = "" then None
  else if pattern.[0] >= '0' && pattern.[0] <= '9' then
    match Nk_http.Ip.cidr_of_string pattern with
    | Ok cidr when Nk_http.Ip.cidr_contains cidr c.Nk_http.Ip.ip ->
      (* Score by prefix length so /32 beats /8. *)
      let bits =
        match Nk_util.Strutil.split_first '/' pattern with
        | Some (_, b) -> ( match int_of_string_opt b with Some v -> v | None -> 32)
        | None -> 32
      in
      Some bits
    | _ -> None
  else
    match c.Nk_http.Ip.hostname with
    | None -> None
    | Some host ->
      let host = String.lowercase_ascii host in
      let pattern = String.lowercase_ascii pattern in
      if host = pattern || Nk_util.Strutil.ends_with ~suffix:("." ^ pattern) host then
        Some (count_labels pattern * 8)
      else None

let meth ~pattern m =
  if Nk_http.Method_.equal (Nk_http.Method_.of_string pattern) m then Some 1 else None

(* A client's header is matched outside any script, where no fuel
   applies: a pattern that needs more than this many matcher steps on
   it counts as no match. *)
let header_step_bound = 10_000

exception Step_bound

let header ~name ~regex headers =
  match Nk_http.Headers.get headers name with
  | None -> None
  | Some value -> (
    let steps = ref 0 in
    let step () =
      incr steps;
      if !steps > header_step_bound then raise_notrace Step_bound
    in
    match Nk_regex.Regex.matches regex ~step value with
    | true -> Some 1
    | false | (exception Step_bound) -> None)

let best f values =
  List.fold_left
    (fun acc v ->
      match (acc, f v) with
      | None, s -> s
      | s, None -> s
      | Some a, Some b -> Some (max a b))
    None values
