type entry = { value : string; expiry : float }

type node_store = (string, entry list) Hashtbl.t

(* Hotspot machinery (Coral-style sloppy replication, §3.4): a
   per-key exponentially-decayed request counter; keys whose decayed
   rate crosses [threshold] get their announcements copied onto nodes
   drawn from the tail of the triggering lookup's path (the
   convergence funnel near the owner, where greedy routes from many
   requesters overlap), and later lookups stop at the first live
   holder on their own path instead of routing all the way to the
   owner. Placements carry a TTL so the ring reconverges to the
   no-replica equilibrium once the crowd moves on. *)
type hotspot_config = {
  threshold : float; (* req/s of decayed rate that triggers replication *)
  hot_replicas : int; (* sloppy copies per hot key *)
  hot_ttl : float; (* placement lifetime, seconds *)
  halflife : float; (* decay halflife of the rate estimator, seconds *)
}

type rate = { mutable score : float; mutable last : float }

type placement = { holders : Node_id.t list; placed_expiry : float }

type t = {
  ring : Ring.t;
  stores : (int, node_store) Hashtbl.t; (* keyed by ring id *)
  ids : (string, Node_id.t) Hashtbl.t; (* node name -> id *)
  names : (int, string) Hashtbl.t; (* ring id -> node name *)
  mutable live : string -> bool;
  metrics : Nk_telemetry.Metrics.t;
  mutable hotspot : hotspot_config option; (* None = detection off *)
  rates : (string, rate) Hashtbl.t; (* key -> decayed request rate *)
  placements : (string, placement) Hashtbl.t; (* key -> sloppy copies *)
  rng : Nk_util.Prng.t; (* replica placement; seeded for determinism *)
}

module Key = struct
  type t = { name : string; id : Node_id.t }

  let of_string name = { name; id = Node_id.of_string name }
end

(* Each key's announcements live on its owner and next distinct
   successor, at most 16 of them (newest win). *)
let replicas = 2

let values_per_key = 16

let create () =
  { ring = Ring.create (); stores = Hashtbl.create 16; ids = Hashtbl.create 16;
    names = Hashtbl.create 16; live = (fun _ -> true);
    metrics = Nk_telemetry.Metrics.create (); hotspot = None;
    rates = Hashtbl.create 16; placements = Hashtbl.create 16;
    rng = Nk_util.Prng.create 0x5107 }

module Counter = Nk_telemetry.Metrics.Counter
module Gauge = Nk_telemetry.Metrics.Gauge
module Hist = Nk_telemetry.Metrics.Hist

module Meter = struct
  let gets = Counter.v "dht.gets"
  let get_hits = Counter.v "dht.get-hits"
  let puts = Counter.v "dht.puts"
  let fallbacks = Counter.v "dht.fallbacks"
  let sloppy_hits = Counter.v "dht.sloppy_hits"
  let hotspot_replications = Counter.v "dht.hotspot_replications"
  let hotspots = Gauge.v "dht.hotspots"
  let hops = Hist.v "dht.hops"
end

let metrics t = t.metrics

let set_liveness t f = t.live <- f

let set_hotspots t ~halflife ~threshold ~replicas ~ttl () =
  if threshold <= 0. then invalid_arg "Dht.set_hotspots: threshold must be > 0";
  if replicas < 1 then invalid_arg "Dht.set_hotspots: replicas must be >= 1";
  if ttl <= 0. then invalid_arg "Dht.set_hotspots: ttl must be > 0";
  if halflife <= 0. then invalid_arg "Dht.set_hotspots: halflife must be > 0";
  t.hotspot <- Some { threshold; hot_replicas = replicas; hot_ttl = ttl; halflife }

let join t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
    let id = Node_id.of_string name in
    Hashtbl.replace t.ids name id;
    Hashtbl.replace t.names (id : Node_id.t :> int) name;
    Hashtbl.replace t.stores (id : Node_id.t :> int) (Hashtbl.create 16);
    Ring.join t.ring id;
    id

let node_id t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Dht: node %s has not joined" name)

type lookup = { values : string list; hops : int; fallbacks : int; owner : Node_id.t option }

let route t ~from ~(key : Key.t) =
  let from_id = node_id t from in
  let path = Ring.lookup_path t.ring ~from:from_id ~key:key.id in
  let owner =
    match List.rev path with
    | last :: _ -> Some last
    | [] -> if Ring.mem t.ring from_id then Some from_id else None
  in
  (owner, List.length path)

(* The owner plus its next distinct ring successors — the replica set
   of a key, newest-responsibility first. At most [replicas] nodes,
   read from consecutive slots of the ring's sorted members. *)
let replica_set t owner = Ring.successors t.ring owner ~k:replicas

let node_live t id =
  match Hashtbl.find_opt t.names (id : Node_id.t :> int) with
  | None -> false
  | Some name -> t.live name

(* [entries] without the expired ones: [entries] itself when none has
   expired, so nodes that one put wrote keep sharing its list. *)
let live_entries ~now entries =
  if List.for_all (fun e -> e.expiry > now) entries then entries
  else List.filter (fun e -> e.expiry > now) entries

let store_entries t node key entries =
  match Hashtbl.find_opt t.stores (node : Node_id.t :> int) with
  | None -> ()
  | Some store -> Hashtbl.replace store key entries

let read_entries t node key =
  match Hashtbl.find_opt t.stores (node : Node_id.t :> int) with
  | None -> []
  | Some store -> ( match Hashtbl.find_opt store key with Some es -> es | None -> [])

(* {1 Hotspot detection and sloppy replication} *)

let decayed_score r ~now ~halflife =
  r.score *. exp (log 0.5 *. ((now -. r.last) /. halflife))

(* Steady state of the decayed counter under arrival rate λ is
   λ·halflife/ln 2, so the rate estimate inverts that. *)
let score_to_rate score ~halflife = score *. log 2. /. halflife

let note_request t cfg ~now key =
  let r =
    match Hashtbl.find_opt t.rates key with
    | Some r -> r
    | None ->
      let r = { score = 0.; last = now } in
      Hashtbl.replace t.rates key r;
      r
  in
  r.score <- decayed_score r ~now ~halflife:cfg.halflife +. 1.;
  r.last <- now;
  score_to_rate r.score ~halflife:cfg.halflife

let drop_placement t key p =
  List.iter
    (fun holder ->
      match Hashtbl.find_opt t.stores (holder : Node_id.t :> int) with
      | None -> ()
      | Some store -> Hashtbl.remove store key)
    p.holders;
  Hashtbl.remove t.placements key

let active_placement t ~now key =
  match Hashtbl.find_opt t.placements key with
  | None -> None
  | Some p ->
    if p.placed_expiry > now then Some p
    else begin
      drop_placement t key p;
      None
    end

(* Expire every stale placement and prune decayed rate entries; the
   cluster's one DHT sweeper calls it every half placement TTL, so the
   tables stay bounded under crowds that move between keys. *)
let sweep t ~now =
  match t.hotspot with
  | None -> ()
  | Some cfg ->
    let stale =
      Hashtbl.fold
        (fun key p acc -> if p.placed_expiry <= now then (key, p) :: acc else acc)
        t.placements []
    in
    List.iter (fun (key, p) -> drop_placement t key p) stale;
    let cold =
      Hashtbl.fold
        (fun key r acc ->
          if score_to_rate (decayed_score r ~now ~halflife:cfg.halflife)
               ~halflife:cfg.halflife
             < cfg.threshold /. 100.
          then key :: acc
          else acc)
        t.rates []
    in
    List.iter (Hashtbl.remove t.rates) cold;
    Gauge.set t.metrics Meter.hotspots
      (float_of_int (Hashtbl.length t.placements))

(* Place sloppy copies of [key]'s announcements on up to
   [cfg.hot_replicas] random live nodes drawn from the tail of the
   triggering lookup's [path] (owner excluded) — the funnel where
   greedy routes converge, so later lookups from elsewhere still pass
   a holder. *)
let place_replicas t cfg ~now ~key ~owner ~path =
  let entries = live_entries ~now (read_entries t owner key) in
  if entries <> [] then begin
    let candidates =
      List.filter
        (fun n -> (not (Node_id.equal n owner)) && node_live t n)
        path
    in
    (* Favor the owner-adjacent tail: keep the last few path nodes,
       then pick replicas at random among them. *)
    let tail =
      let rev = List.rev candidates in
      List.filteri (fun i _ -> i < cfg.hot_replicas + 2) rev
    in
    let holders =
      let arr = Array.of_list tail in
      Nk_util.Prng.shuffle t.rng arr;
      Array.to_list arr |> List.filteri (fun i _ -> i < cfg.hot_replicas)
    in
    if holders <> [] then begin
      List.iter (fun holder -> store_entries t holder key entries) holders;
      Hashtbl.replace t.placements key
        { holders; placed_expiry = now +. cfg.hot_ttl };
      Counter.incr t.metrics Meter.hotspot_replications;
      Gauge.set t.metrics Meter.hotspots
        (float_of_int (Hashtbl.length t.placements))
    end
  end

let hotspots t ~now =
  match t.hotspot with
  | None -> []
  | Some cfg ->
    Hashtbl.fold
      (fun key r acc ->
        let rate =
          score_to_rate (decayed_score r ~now ~halflife:cfg.halflife)
            ~halflife:cfg.halflife
        in
        if rate >= cfg.threshold then (key, rate) :: acc else acc)
      t.rates []
    |> List.sort (fun (_, a) (_, b) -> compare b a)

let sloppy_replicas t = Hashtbl.length t.placements

let put_key t ~now ~from ~key ~value ~ttl =
  let owner, hops = route t ~from ~key in
  let key = key.Key.name in
  (match owner with
   | None -> ()
   | Some owner ->
     let targets =
       let base = replica_set t owner in
       (* Write through to live sloppy holders so replicated reads stay
          bit-identical to owner reads while a placement is active. *)
       match active_placement t ~now key with
       | None -> base
       | Some p -> base @ List.filter (fun h -> not (List.exists (Node_id.equal h) base)) p.holders
     in
     (* The new announcement ahead of the old list's live entries for
        other values, at most [values_per_key] in all. Targets written
        together hold one physical list, so the list is rebuilt once per
        distinct old list ([==]) and the result shared by its holders. *)
     let fresh = { value; expiry = now +. ttl } in
     let rec keep n = function
       | [] -> []
       | e :: rest ->
         if n = 0 then []
         else if e.expiry > now && e.value <> value then e :: keep (n - 1) rest
         else keep n rest
     in
     let rebuilt = ref [] in
     List.iter
       (fun node ->
         match Hashtbl.find_opt t.stores (node : Node_id.t :> int) with
         | None -> ()
         | Some store ->
           let old = match Hashtbl.find_opt store key with Some es -> es | None -> [] in
           let entries =
             match List.assq_opt old !rebuilt with
             | Some entries -> entries
             | None ->
               let entries = fresh :: keep (values_per_key - 1) old in
               rebuilt := (old, entries) :: !rebuilt;
               entries
           in
           Hashtbl.replace store key entries)
       targets);
  Counter.incr t.metrics Meter.puts;
  Hist.observe t.metrics Meter.hops (float_of_int hops);
  hops

let live_values t ~now node key =
  match Hashtbl.find_opt t.stores (node : Node_id.t :> int) with
  | None -> None
  | Some store -> (
    match Hashtbl.find_opt store key with
    | None -> None
    | Some entries ->
      let live = live_entries ~now entries in
      if live != entries then Hashtbl.replace store key live;
      Some (List.map (fun e -> e.value) live))

let put t ~now ~from ~key ~value ~ttl = put_key t ~now ~from ~key:(Key.of_string key) ~value ~ttl

let get_key t ~now ~from ~(key : Key.t) =
  let from_id = node_id t from in
  let path = Ring.lookup_path t.ring ~from:from_id ~key:key.id in
  let key = key.name in
  let owner =
    match List.rev path with
    | last :: _ -> Some last
    | [] -> if Ring.mem t.ring from_id then Some from_id else None
  in
  (* Hotspot bookkeeping: bump the key's decayed rate; trigger a sloppy
     placement when it crosses the threshold. *)
  (match t.hotspot, owner with
   | Some cfg, Some owner_id ->
     let rate = note_request t cfg ~now key in
     if rate >= cfg.threshold && active_placement t ~now key = None then
       place_replicas t cfg ~now ~key ~owner:owner_id ~path
   | _ -> ());
  (* A lookup prefers the first live sloppy holder on its own path
     (the requester included, at zero hops) over routing to the
     owner. *)
  let sloppy_hit =
    match t.hotspot with
    | None -> None
    | Some _ -> (
      match active_placement t ~now key with
      | None -> None
      | Some p ->
        let is_holder n = List.exists (Node_id.equal n) p.holders in
        let rec scan i = function
          | [] -> None
          | n :: rest ->
            if is_holder n && node_live t n then Some (n, i) else scan (i + 1) rest
        in
        if is_holder from_id && node_live t from_id then Some (from_id, 0)
        else scan 1 path)
  in
  let values, hops, fallbacks =
    match sloppy_hit with
    | Some (holder, hop_count) ->
      let vs = match live_values t ~now holder key with Some vs -> vs | None -> [] in
      Counter.incr t.metrics Meter.sloppy_hits;
      (vs, hop_count, 0)
    | None ->
      (* Read from the first *live* replica: owner, then its
         successors. Each skipped (crashed) replica costs one extra
         routing hop and is counted as a fallback. *)
      let hops = List.length path in
      (match owner with
       | None -> ([], hops, 0)
       | Some owner ->
         let rec first_live skipped = function
           | [] -> ([], hops + skipped, skipped)
           | node :: rest ->
             if not (node_live t node) then first_live (skipped + 1) rest
             else
               let vs =
                 match live_values t ~now node key with Some vs -> vs | None -> []
               in
               (vs, hops + skipped, skipped)
         in
         first_live 0 (replica_set t owner))
  in
  Counter.incr t.metrics Meter.gets;
  if fallbacks > 0 then
    Counter.incr t.metrics ~by:fallbacks Meter.fallbacks;
  if values <> [] then Counter.incr t.metrics Meter.get_hits;
  Hist.observe t.metrics Meter.hops (float_of_int hops);
  { values; hops; fallbacks; owner }

let get t ~now ~from ~key = get_key t ~now ~from ~key:(Key.of_string key)

(* The live members of [key]'s replica set by node name — the owner
   and its next distinct ring successors, via {!Ring.successors}. The
   hedging layer asks for these when it needs "the next live replica"
   beyond a lookup's announced holders. *)
let replica_names t ~(key : Key.t) =
  Ring.successors t.ring key.id ~k:replicas
  |> List.filter_map (fun id ->
       match Hashtbl.find_opt t.names (id : Node_id.t :> int) with
       | Some name when t.live name -> Some name
       | _ -> None)
