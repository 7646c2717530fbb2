type 'a t = {
  table : (string, float * 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () = { table = Hashtbl.create 32; hits = 0; misses = 0 }

let find t ~now key =
  match Hashtbl.find_opt t.table key with
  | Some (expiry, v) when expiry > now ->
    t.hits <- t.hits + 1;
    Some v
  | Some _ ->
    Hashtbl.remove t.table key;
    t.misses <- t.misses + 1;
    None
  | None ->
    t.misses <- t.misses + 1;
    None

let put t ~key ~expiry v = Hashtbl.replace t.table key (expiry, v)

let remove t key = Hashtbl.remove t.table key

let fold t ~init ~f = Hashtbl.fold (fun key (_, v) acc -> f acc key v) t.table init

let size t = Hashtbl.length t.table

let hits t = t.hits

let misses t = t.misses
