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
  metrics : Nk_telemetry.Metrics.t;
}

module Counter = Nk_telemetry.Metrics.Counter
module Gauge = Nk_telemetry.Metrics.Gauge

(* The cache's counts live only here, in the registry it was given. *)
module Meter = struct
  let hits = Counter.v "cache.hits"
  let misses = Counter.v "cache.misses"
  let stale_misses = Counter.v "cache.stale-misses"
  let insertions = Counter.v "cache.insertions"
  let evictions = Counter.v "cache.evictions"
  let bytes = Gauge.v "cache.bytes"
  let entries = Gauge.v "cache.entries"
end

let meter_size t =
  Gauge.set t.metrics Meter.bytes (float_of_int t.bytes);
  Gauge.set t.metrics Meter.entries (float_of_int (Hashtbl.length t.table))

let create ?(max_bytes = 256 * 1024 * 1024) ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Nk_telemetry.Metrics.create () in
  { max_bytes; table = Hashtbl.create 64; head = None; tail = None; bytes = 0; metrics }

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
  match Hashtbl.find_opt t.table key with
  | Some e ->
    drop t e;
    meter_size t
  | None -> ()

let lookup t ~now ~key =
  match Hashtbl.find_opt t.table key with
  | None ->
    Counter.incr t.metrics Meter.misses;
    None
  | Some e ->
    if e.expiry <= now then begin
      (* Stale: keep the entry for conditional revalidation. *)
      Counter.incr t.metrics Meter.misses;
      Counter.incr t.metrics Meter.stale_misses;
      None
    end
    else begin
      unlink t e;
      push_front t e;
      Counter.incr t.metrics Meter.hits;
      Some (Nk_http.Message.copy_response e.response)
    end

let lookup_stale t ~key =
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

let evict_until_fits t =
  while t.bytes > t.max_bytes do
    match t.tail with
    | Some e ->
      drop t e;
      Counter.incr t.metrics Meter.evictions
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
      (match Hashtbl.find_opt t.table key with Some old -> drop t old | None -> ());
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
      Counter.incr t.metrics Meter.insertions;
      evict_until_fits t;
      meter_size t;
      true
    end

let insert t ~now ~key ~expiry response = ignore (store t ~now ~key ~expiry response)

let hits t = Counter.get t.metrics Meter.hits
