let content_hash_header = "X-Content-SHA256"

let signature_header = "X-Signature"

type violation = Missing_headers | Relative_expiry | Hash_mismatch | Bad_signature | Stale

let violation_to_string = function
  | Missing_headers -> "missing integrity headers"
  | Relative_expiry -> "relative cache expiry (absolute Expires required)"
  | Hash_mismatch -> "content hash mismatch"
  | Bad_signature -> "bad signature"
  | Stale -> "content past its signed expiration"

(* The signed string binds the hash to the freshness metadata. *)
let signing_payload ~hash ~expires = hash ^ "|" ^ expires

let absolute_expires resp =
  let relative =
    match Nk_http.Message.resp_header resp "Cache-Control" with
    | Some cc ->
      let parsed = Nk_http.Cache_control.parse cc in
      parsed.Nk_http.Cache_control.max_age <> None
      || parsed.Nk_http.Cache_control.s_maxage <> None
    | None -> false
  in
  if relative then Error Relative_expiry
  else
    match Nk_http.Message.resp_header resp "Expires" with
    | Some e -> (
      match Nk_http.Http_date.parse e with
      | Some _ -> Ok e
      | None -> Error Relative_expiry)
    | None -> Error Relative_expiry

let body_hash resp =
  Nk_crypto.Sha256.digest_hex (Nk_http.Body.to_string resp.Nk_http.Message.resp_body)

let sign ~key resp =
  match absolute_expires resp with
  | Error v -> Error v
  | Ok expires ->
    let hash = body_hash resp in
    Nk_http.Message.set_resp_header resp content_hash_header hash;
    Nk_http.Message.set_resp_header resp signature_header
      (Nk_crypto.Hmac.mac_hex ~key (signing_payload ~hash ~expires));
    Ok ()

let verify ~key ~now resp =
  match
    ( Nk_http.Message.resp_header resp content_hash_header,
      Nk_http.Message.resp_header resp signature_header )
  with
  | None, _ | _, None -> Error Missing_headers
  | Some hash, Some signature -> (
    match absolute_expires resp with
    | Error v -> Error v
    | Ok expires ->
      if body_hash resp <> hash then Error Hash_mismatch
      else if
        Nk_crypto.Hmac.mac_hex ~key (signing_payload ~hash ~expires) <> signature
      then Error Bad_signature
      else begin
        match Nk_http.Http_date.parse expires with
        | Some expiry when expiry > now -> Ok ()
        | _ -> Error Stale
      end)
