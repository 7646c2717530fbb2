type 'a t = (string, float * 'a) Hashtbl.t

let create () = Hashtbl.create 32

let find t ~now key =
  match Hashtbl.find_opt t key with
  | Some (expiry, v) when expiry > now -> Some v
  | Some _ ->
    Hashtbl.remove t key;
    None
  | None -> None

let put t ~key ~expiry v = Hashtbl.replace t key (expiry, v)

let remove t key = Hashtbl.remove t key

let fold t ~init ~f = Hashtbl.fold (fun key (_, v) acc -> f acc key v) t init

let size t = Hashtbl.length t
