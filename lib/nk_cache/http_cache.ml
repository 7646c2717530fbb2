type entry = {
  key : string;
  response : Nk_http.Message.response;
  mutable expiry : float;
  size : int;
  mutable prev : entry option;
  mutable next : entry option;
}

type t = {
  max_bytes : int;
  table : (string, entry) Hashtbl.t;
  mutable head : entry option; (* most recently used *)
  mutable tail : entry option; (* least recently used *)
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable metrics : Nk_telemetry.Metrics.t option;
}

(* Mirror the internal counters into an attached registry so cache
   behaviour shows up in [nakika stats] next to everything else. *)
let meter t name =
  match t.metrics with Some m -> Nk_telemetry.Metrics.incr m name | None -> ()

let meter_size t =
  match t.metrics with
  | Some m ->
    Nk_telemetry.Metrics.set_gauge m "cache.bytes" (float_of_int t.bytes);
    Nk_telemetry.Metrics.set_gauge m "cache.entries" (float_of_int (Hashtbl.length t.table))
  | None -> ()

let create ?(max_bytes = 256 * 1024 * 1024) () =
  {
    max_bytes;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    bytes = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    metrics = None;
  }

let set_metrics t metrics = t.metrics <- Some metrics

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  e.prev <- None;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let drop t e =
  unlink t e;
  Hashtbl.remove t.table e.key;
  t.bytes <- t.bytes - e.size

let remove t ~key =
  match Hashtbl.find_opt t.table key with Some e -> drop t e | None -> ()

let lookup t ~now ~key =
  match Hashtbl.find_opt t.table key with
  | None ->
    t.misses <- t.misses + 1;
    meter t "cache.misses";
    None
  | Some e ->
    if e.expiry <= now then begin
      (* Stale: keep the entry for conditional revalidation. *)
      t.misses <- t.misses + 1;
      meter t "cache.misses";
      meter t "cache.stale-misses";
      None
    end
    else begin
      unlink t e;
      push_front t e;
      t.hits <- t.hits + 1;
      meter t "cache.hits";
      Some (Nk_http.Message.copy_response e.response)
    end

let lookup_stale t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e -> Some (Nk_http.Message.copy_response e.response)

let lookup_stale_entry t ~key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some e -> Some (Nk_http.Message.copy_response e.response, e.expiry)

let refresh t ~key ~expiry =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some e ->
    e.expiry <- expiry;
    unlink t e;
    push_front t e

let fold_fresh t ~now ~init ~f =
  Hashtbl.fold (fun key e acc -> if e.expiry > now then f acc key e.expiry else acc) t.table init

let mem t ~now ~key =
  match Hashtbl.find_opt t.table key with
  | Some e when e.expiry > now -> true
  | _ -> false

let evict_until_fits t =
  while t.bytes > t.max_bytes do
    match t.tail with
    | Some e ->
      drop t e;
      t.evictions <- t.evictions + 1;
      meter t "cache.evictions"
    | None -> t.bytes <- 0
  done

let store t ~now ~key ~expiry response =
  match expiry with
  | None -> false
  | Some expiry when expiry <= now -> false
  | Some expiry ->
    let size = Nk_http.Message.content_length response + 128 in
    if size > t.max_bytes then false
    else begin
      remove t ~key;
      let e =
        {
          key;
          response = Nk_http.Message.copy_response response;
          expiry;
          size;
          prev = None;
          next = None;
        }
      in
      Hashtbl.replace t.table key e;
      push_front t e;
      t.bytes <- t.bytes + size;
      meter t "cache.insertions";
      evict_until_fits t;
      meter_size t;
      true
    end

let insert t ~now ~key ~expiry response = ignore (store t ~now ~key ~expiry response)

let entry_count t = Hashtbl.length t.table

let size_bytes t = t.bytes

let hits t = t.hits

let misses t = t.misses

let evictions t = t.evictions
