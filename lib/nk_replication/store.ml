type site_state = { table : (string, string) Hashtbl.t; mutable bytes : int }

type t = { sites : (string, site_state) Hashtbl.t }

(* Each site's byte quota. *)
let quota = 16 * 1024 * 1024

let create () = { sites = Hashtbl.create 8 }

let site_state t site =
  match Hashtbl.find_opt t.sites site with
  | Some s -> s
  | None ->
    let s = { table = Hashtbl.create 16; bytes = 0 } in
    Hashtbl.add t.sites site s;
    s

let entry_size key value = String.length key + String.length value + 32

let get t ~site ~key =
  match Hashtbl.find_opt t.sites site with
  | None -> None
  | Some s -> Hashtbl.find_opt s.table key

let put t ~site ~key value =
  let s = site_state t site in
  let old_size =
    match Hashtbl.find_opt s.table key with
    | Some old -> entry_size key old
    | None -> 0
  in
  let new_bytes = s.bytes - old_size + entry_size key value in
  if new_bytes > quota then false
  else begin
    Hashtbl.replace s.table key value;
    s.bytes <- new_bytes;
    true
  end

let keys t ~site ~prefix =
  match Hashtbl.find_opt t.sites site with
  | None -> []
  | Some s ->
    Hashtbl.fold
      (fun k _ acc -> if Nk_util.Strutil.starts_with ~prefix k then k :: acc else acc)
      s.table []
    |> List.sort compare
