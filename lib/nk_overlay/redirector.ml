type health = {
  queue_delay : float;
  shed_rate : float;
  incarnation : int;
  reported_at : float;
}

(* [seq] numbers registrations in order. [proxies] is newest first and
   removal keeps the relative order, so list position is descending
   [seq]: the pick walk compares positions without scanning the list. *)
type proxy = { host : Nk_sim.Net.host; seq : int }

type t = {
  net : Nk_sim.Net.t;
  mutable proxies : proxy list;
  registered : (string, proxy) Hashtbl.t; (* by host name *)
  mutable next_seq : int;
  reports : (string, health) Hashtbl.t;
  mutable staleness : float;
}

let create net =
  { net; proxies = []; registered = Hashtbl.create 64; next_seq = 0;
    reports = Hashtbl.create 8; staleness = infinity }

let set_staleness t bound = t.staleness <- bound

let add_proxy t host =
  let name = Nk_sim.Net.host_name host in
  if not (Hashtbl.mem t.registered name) then begin
    let p = { host; seq = t.next_seq } in
    t.next_seq <- t.next_seq + 1;
    t.proxies <- p :: t.proxies;
    Hashtbl.replace t.registered name p
  end

let remove_proxy t host =
  let name = Nk_sim.Net.host_name host in
  if Hashtbl.mem t.registered name then begin
    t.proxies <- List.filter (fun p -> Nk_sim.Net.host_name p.host <> name) t.proxies;
    Hashtbl.remove t.registered name
  end;
  Hashtbl.remove t.reports name

let proxies t = List.map (fun p -> p.host) t.proxies

let report t ~host ?(incarnation = 0) ~queue_delay ~shed_rate () =
  let fresh =
    match Hashtbl.find_opt t.reports host with
    | Some prev -> incarnation >= prev.incarnation
    | None -> true
  in
  (* A report from a pre-crash incarnation may arrive after the node
     restarted and re-announced; never let it shadow the newer view. *)
  if fresh then
    Hashtbl.replace t.reports host
      {
        queue_delay;
        shed_rate;
        incarnation;
        reported_at = Nk_sim.Sim.now (Nk_sim.Net.sim t.net);
      }

let health t ~host = Hashtbl.find_opt t.reports host

(* An unloaded node has headroom 1.0; queueing delay and shed rate each
   scale it down, floored so a struggling node still gets a trickle of
   probes (otherwise it could never demonstrate recovery). *)
let headroom t host =
  match Hashtbl.find_opt t.reports (Nk_sim.Net.host_name host) with
  | None -> 1.0
  | Some h ->
    let age = Nk_sim.Sim.now (Nk_sim.Net.sim t.net) -. h.reported_at in
    if age > t.staleness then
      (* A node that stopped reporting is suspect, not idle: its last
         report says nothing about its load now. Dropping the report
         entirely would hand it the unknown-node headroom of 1.0 —
         attracting MORE traffic to a silent node — so instead it gets
         the recovery-probe floor until it speaks again. *)
      0.02
    else
      let delay_factor = 1.0 /. (1.0 +. (h.queue_delay /. 0.1)) in
      let shed_factor = 1.0 -. Float.min 0.95 h.shed_rate in
      Float.max 0.02 (delay_factor *. shed_factor)

let probe_size = 1024

(* A pick ranks proxies by estimated transfer time from the client, ties
   in list order: the order a stable sort of the proxy list by estimate
   gives. Only the client itself and the hosts it has an explicit link
   to can have an estimate other than the default, so those few
   ("special") are sorted by (estimate, position) and merged lazily with
   the rest, which share the default estimate and are already in list
   order. Both inputs are sorted by (estimate, position), so the merge
   is too. A pick stops as soon as it has its candidates, so it never
   ranks the whole fleet. *)
let pick t ?(spread = 1) ~rng ~client () =
  let estimate host = Nk_sim.Net.transfer_time_estimate t.net ~src:client ~dst:host ~size:probe_size in
  let special =
    client :: Nk_sim.Net.linked t.net client
    |> List.filter_map (fun h -> Hashtbl.find_opt t.registered (Nk_sim.Net.host_name h))
    |> List.map (fun p -> (estimate p.host, p))
    |> List.sort_uniq (fun (a, p) (b, q) ->
           match Float.compare a b with 0 -> Int.compare q.seq p.seq | c -> c)
  in
  let rec others = function
    | p :: rest when List.exists (fun (_, q) -> q == p) special -> others rest
    | rest -> rest
  in
  (* The next proxy in rank order, and the state after it. *)
  let next special rest =
    match (special, others rest) with
    | [], [] -> None
    | (s, p) :: special', [] -> Some (s, p.host, special', [])
    | [], q :: rest' -> Some (estimate q.host, q.host, [], rest')
    | (s, p) :: special', (q :: rest' as rest) ->
      let d = estimate q.host in
      let c = Float.compare s d in
      if c < 0 || (c = 0 && p.seq > q.seq) then Some (s, p.host, special', rest)
      else Some (d, q.host, special, rest')
  in
  (* A crashed proxy must not receive redirections, whatever its last
     load report said. *)
  let live h = not (Nk_sim.Net.host_down t.net h) in
  let rec first_live special rest =
    match next special rest with
    | None -> None
    | Some (s, h, special, rest) -> if live h then Some (s, h, special, rest) else first_live special rest
  in
  match first_live special t.proxies with
  | None -> None
  | Some (best, nearest_host, special, rest) ->
    (* "Close-by": only proxies comparable to the nearest count as
       spread candidates, so load balancing never sends a client across
       the world. The spread is clamped to the live close-by candidates
       — a spread of 4 over 2 proxies is a spread of 2. *)
    let close_bound = (best *. 2.0) +. 1e-4 in
    let rec collect acc k special rest =
      if k = 0 then List.rev acc
      else
        match next special rest with
        | Some (s, h, special, rest) when s <= close_bound ->
          if live h then collect (h :: acc) (k - 1) special rest else collect acc k special rest
        | _ -> List.rev acc
    in
    let nearest = collect [ nearest_host ] (max 1 spread - 1) special rest in
    (* Weighted choice by reported headroom: among equally close nodes,
       an idle one draws proportionally more clients than one shedding
       half its arrivals. *)
    let weighted = List.map (fun p -> (headroom t p, p)) nearest in
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let roll = Nk_util.Prng.float rng total in
    let rec choose acc = function
      | [] -> None
      | [ (_, p) ] -> Some p
      | (w, p) :: rest -> if roll < acc +. w then Some p else choose (acc +. w) rest
    in
    choose 0.0 weighted
