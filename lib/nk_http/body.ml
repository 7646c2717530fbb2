type t = { chunks : string list; length : int }

let empty = { chunks = []; length = 0 }

let of_string s = if s = "" then empty else { chunks = [ s ]; length = String.length s }

let of_chunks cs =
  let cs = List.filter (fun c -> c <> "") cs in
  { chunks = cs; length = List.fold_left (fun n c -> n + String.length c) 0 cs }

let to_string t =
  (* Single-chunk bodies (whole responses, transcoded images) are the
     overwhelmingly common case; return the chunk itself rather than
     paying String.concat's copy. Chunks are immutable strings, so the
     alias is safe. *)
  match t.chunks with [] -> "" | [ c ] -> c | cs -> String.concat "" cs

let length t = t.length

let chunks t = t.chunks

type reader = { mutable remaining : string list }

let reader t = { remaining = t.chunks }

let read r =
  match r.remaining with
  | [] -> None
  | chunk :: rest ->
    r.remaining <- rest;
    Some chunk
