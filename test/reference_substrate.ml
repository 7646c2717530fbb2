(* Reference copies of the simulator's event queue, network model and
   DHT as they were before the queue became struct-of-arrays, network
   state moved onto hosts, and DHT keys were hashed once per request.
   The differential properties in [Test_sim] and [Test_overlay] run
   them side by side with the current modules. Comments are stripped;
   the code is otherwise unchanged. *)

module Heap = struct
  type 'a entry = { prio : float; seq : int; value : 'a }

  type 'a t = {
    mutable data : 'a entry array;
    mutable len : int;
    mutable next_seq : int;
  }

  let create () = { data = [||]; len = 0; next_seq = 0 }

  let is_empty t = t.len = 0

  let size t = t.len

  let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

  let grow t entry =
    let cap = Array.length t.data in
    if t.len = cap then begin
      let ncap = if cap = 0 then 16 else cap * 2 in
      let ndata = Array.make ncap entry in
      Array.blit t.data 0 ndata 0 t.len;
      t.data <- ndata
    end

  let push t prio value =
    let entry = { prio; seq = t.next_seq; value } in
    t.next_seq <- t.next_seq + 1;
    grow t entry;
    t.data.(t.len) <- entry;
    t.len <- t.len + 1;

    let i = ref (t.len - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      less t.data.(!i) t.data.(parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = t.data.(!i) in
      t.data.(!i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      i := parent
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let top = t.data.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.data.(0) <- t.data.(t.len);

        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.len && less t.data.(l) t.data.(!smallest) then smallest := l;
          if r < t.len && less t.data.(r) t.data.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            let tmp = t.data.(!i) in
            t.data.(!i) <- t.data.(!smallest);
            t.data.(!smallest) <- tmp;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some (top.prio, top.value)
    end

  let peek t = if t.len = 0 then None else Some (t.data.(0).prio, t.data.(0).value)

  let clear t =
    t.data <- [||];
    t.len <- 0
end

(* The event loop over [Heap]. *)
module Sim = struct
  type event = { thunk : unit -> unit; daemon : bool }

  type t = {
    mutable clock : float;
    queue : event Heap.t;
    mutable live : int;
    mutable executed : int;
  }

  let create ?(start_time = Core.Sim.Sim.epoch) () =
    { clock = start_time; queue = Heap.create (); live = 0; executed = 0 }

  let now t = t.clock

  let schedule_at t ?(daemon = false) time thunk =
    let time = if time < t.clock then t.clock else time in
    if not daemon then t.live <- t.live + 1;
    Heap.push t.queue time { thunk; daemon }

  let schedule t ?daemon ~delay thunk = schedule_at t ?daemon (t.clock +. delay) thunk

  let step t =
    match Heap.pop t.queue with
    | None -> false
    | Some (time, event) ->
      t.clock <- time;
      if not event.daemon then t.live <- t.live - 1;
      t.executed <- t.executed + 1;
      event.thunk ();
      true

  let run ?until t =
    match until with
    | None -> while t.live > 0 && step t do () done
    | Some deadline ->
      let continue = ref true in
      while !continue do
        match Heap.peek t.queue with
        | Some (time, _) when time <= deadline -> ignore (step t)
        | _ -> continue := false
      done;
      if t.clock < deadline then t.clock <- deadline

  let pending t = Heap.size t.queue

  let executed t = t.executed
end

(* Per-pair and per-host tables keyed by host id, on the current [Sim]. *)
module Net = struct
  type host = { id : int; name : string; cpu_speed : float }

  type link_state = { mutable busy_until : float }

  type link_params = { latency : float; bandwidth : float }

  type t = {
    sim : Core.Sim.Sim.t;
    default : link_params;
    links : (int * int, link_params) Hashtbl.t;
    linked : (int, host list) Hashtbl.t;
    pipes : (int * int, link_state) Hashtbl.t;
    cpus : (int, link_state) Hashtbl.t;
    egress : (int, float * link_state) Hashtbl.t;
    byname : (string, host) Hashtbl.t;
    metrics : Core.Telemetry.Metrics.t;
    mutable faults : Core.Faults.Plan.t option;
    mutable next_id : int;
  }

  let create sim ?(default_latency = 0.0002) ?(default_bandwidth = 12_500_000.0) () =
    {
      sim;
      default = { latency = default_latency; bandwidth = default_bandwidth };
      links = Hashtbl.create 16;
      linked = Hashtbl.create 16;
      pipes = Hashtbl.create 16;
      cpus = Hashtbl.create 16;
      egress = Hashtbl.create 4;
      byname = Hashtbl.create 16;
      metrics = Core.Telemetry.Metrics.create ();
      faults = None;
      next_id = 0;
    }

  let sim t = t.sim

  let metrics t = t.metrics

  let add_host t ~name ?(cpu_speed = 1.0) () =
    let host = { id = t.next_id; name; cpu_speed } in
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.cpus host.id { busy_until = 0.0 };
    Hashtbl.replace t.byname host.name host;
    host

  let host_name h = h.name

  let faults t = t.faults

  let host_down t host =
    match t.faults with
    | None -> false
    | Some plan -> Core.Faults.Plan.is_down plan ~now:(Core.Sim.Sim.now t.sim) host.name

  let set_faults t plan =
    t.faults <- Some plan;

    List.iter
      (fun (name, at) ->
        Core.Sim.Sim.schedule_at t.sim ~daemon:true at (fun () ->
            Core.Telemetry.Metrics.incr t.metrics "node.crashes";
            match Hashtbl.find_opt t.byname name with
            | None -> ()
            | Some host ->
              let cpu = Hashtbl.find t.cpus host.id in
              cpu.busy_until <- Core.Sim.Sim.now t.sim))
      (Core.Faults.Plan.crash_times plan)

  let linked t host = Option.value (Hashtbl.find_opt t.linked host.id) ~default:[]

  let connect t a b ~latency ~bandwidth =
    if not (Hashtbl.mem t.links (a.id, b.id)) then begin
      Hashtbl.replace t.linked a.id (b :: linked t a);
      if a.id <> b.id then Hashtbl.replace t.linked b.id (a :: linked t b)
    end;
    let params = { latency; bandwidth } in
    Hashtbl.replace t.links (a.id, b.id) params;
    Hashtbl.replace t.links (b.id, a.id) params

  let params t src dst =
    match Hashtbl.find_opt t.links (src.id, dst.id) with
    | Some p -> p
    | None -> t.default

  let pipe t src dst =
    let key = (src.id, dst.id) in
    match Hashtbl.find_opt t.pipes key with
    | Some s -> s
    | None ->
      let s = { busy_until = 0.0 } in
      Hashtbl.add t.pipes key s;
      s

  let set_egress_limit t host bandwidth =
    Hashtbl.replace t.egress host.id (bandwidth, { busy_until = 0.0 })

  let guard t host k =
    match t.faults with
    | None -> k
    | Some plan ->
      let epoch = Core.Faults.Plan.incarnation plan ~now:(Core.Sim.Sim.now t.sim) host.name in
      fun () ->
        let now = Core.Sim.Sim.now t.sim in
        if
          Core.Faults.Plan.is_down plan ~now host.name
          || Core.Faults.Plan.incarnation plan ~now host.name <> epoch
        then Core.Telemetry.Metrics.incr t.metrics "net.lost-callbacks"
        else k ()

  let send t ~src ~dst ~size k =
    let fate =
      match t.faults with
      | None -> `Deliver 0.0
      | Some plan ->
        let now = Core.Sim.Sim.now t.sim in
        if Core.Faults.Plan.is_down plan ~now src.name then `Drop
        else if src.id = dst.id then `Deliver 0.0
        else Core.Faults.Plan.link_fate plan ~now ~src:src.name ~dst:dst.name
    in
    match fate with
    | `Drop -> Core.Telemetry.Metrics.incr t.metrics "net.dropped"
    | `Deliver extra ->
      let k = guard t dst k in
      if src.id = dst.id then Core.Sim.Sim.schedule t.sim ~delay:0.0 k
      else begin
        let { latency; bandwidth } = params t src dst in
        let pipe = pipe t src dst in
        let now = Core.Sim.Sim.now t.sim in

        let egress_done =
          match Hashtbl.find_opt t.egress src.id with
          | None -> now
          | Some (cap, state) ->
            let start = Float.max now state.busy_until in
            state.busy_until <- start +. (float_of_int size /. cap);
            state.busy_until
        in
        let start = Float.max egress_done pipe.busy_until in
        let transmit = float_of_int size /. bandwidth in
        pipe.busy_until <- start +. transmit;
        Core.Sim.Sim.schedule_at t.sim (start +. transmit +. latency +. extra) k
      end

  let transfer_time_estimate t ~src ~dst ~size =
    if src.id = dst.id then 0.0
    else begin
      let { latency; bandwidth } = params t src dst in
      latency +. (float_of_int size /. bandwidth)
    end

  let cpu_run t host ~seconds k =
    let cpu = Hashtbl.find t.cpus host.id in
    let now = Core.Sim.Sim.now t.sim in
    let base =
      match t.faults with
      | Some plan when Core.Faults.Plan.is_down plan ~now host.name -> (

          match Core.Faults.Plan.restart_time plan ~now host.name with
          | Some r -> r
          | None -> Float.infinity)
      | _ -> now
    in
    if base = Float.infinity then
      Core.Telemetry.Metrics.incr t.metrics "net.lost-callbacks"
    else begin
      let start = Float.max base cpu.busy_until in
      let work = seconds /. host.cpu_speed in
      cpu.busy_until <- start +. work;
      Core.Sim.Sim.schedule_at t.sim cpu.busy_until (guard t host k)
    end

  let cpu_backlog t host =
    let cpu = Hashtbl.find t.cpus host.id in
    Float.max 0.0 (cpu.busy_until -. Core.Sim.Sim.now t.sim)
end

(* Keyed by strings: every operation hashes its key. *)
module Dht = struct
  type entry = { value : string; expiry : float }

  type node_store = (string, entry list) Hashtbl.t

  type hotspot_config = {
    threshold : float;
    hot_replicas : int;
    hot_ttl : float;
    halflife : float;
  }

  type rate = { mutable score : float; mutable last : float }

  type placement = { holders : Core.Overlay.Node_id.t list; placed_expiry : float }

  type t = {
    ring : Core.Overlay.Ring.t;
    stores : (int, node_store) Hashtbl.t;
    ids : (string, Core.Overlay.Node_id.t) Hashtbl.t;
    names : (int, string) Hashtbl.t;
    values_per_key : int;
    replicas : int;
    mutable live : string -> bool;
    metrics : Core.Telemetry.Metrics.t;
    mutable hotspot : hotspot_config option;
    rates : (string, rate) Hashtbl.t;
    placements : (string, placement) Hashtbl.t;
    rng : Core.Util.Prng.t;
  }

  let create ?(values_per_key = 16) ?(replicas = 2) ?(seed = 0x5107) () =
    { ring = Core.Overlay.Ring.create (); stores = Hashtbl.create 16; ids = Hashtbl.create 16;
      names = Hashtbl.create 16; values_per_key; replicas; live = (fun _ -> true);
      metrics = Core.Telemetry.Metrics.create (); hotspot = None;
      rates = Hashtbl.create 16; placements = Hashtbl.create 16;
      rng = Core.Util.Prng.create seed }

  let ring t = t.ring

  let metrics t = t.metrics

  let set_liveness t f = t.live <- f

  let set_hotspots t ?(halflife = 10.) ~threshold ~replicas ~ttl () =
    if threshold <= 0. then invalid_arg "Dht.set_hotspots: threshold must be > 0";
    if replicas < 1 then invalid_arg "Dht.set_hotspots: replicas must be >= 1";
    if ttl <= 0. then invalid_arg "Dht.set_hotspots: ttl must be > 0";
    if halflife <= 0. then invalid_arg "Dht.set_hotspots: halflife must be > 0";
    t.hotspot <- Some { threshold; hot_replicas = replicas; hot_ttl = ttl; halflife }

  let join t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None ->
      let id = Core.Overlay.Node_id.of_string name in
      Hashtbl.replace t.ids name id;
      Hashtbl.replace t.names (id : Core.Overlay.Node_id.t :> int) name;
      Hashtbl.replace t.stores (id : Core.Overlay.Node_id.t :> int) (Hashtbl.create 16);
      Core.Overlay.Ring.join t.ring id;
      id

  let node_id t name =
    match Hashtbl.find_opt t.ids name with
    | Some id -> id
    | None -> invalid_arg (Printf.sprintf "Dht: node %s has not joined" name)

  type lookup = { values : string list; hops : int; fallbacks : int; owner : Core.Overlay.Node_id.t option }

  let route t ~from ~key =
    let from_id = node_id t from in
    let key_id = Core.Overlay.Node_id.of_string key in
    let path = Core.Overlay.Ring.lookup_path t.ring ~from:from_id ~key:key_id in
    let owner =
      match List.rev path with
      | last :: _ -> Some last
      | [] -> if Core.Overlay.Ring.mem t.ring from_id then Some from_id else None
    in
    (owner, List.length path)

  let replica_set t owner = Core.Overlay.Ring.successors t.ring owner ~k:t.replicas

  let node_live t id =
    match Hashtbl.find_opt t.names (id : Core.Overlay.Node_id.t :> int) with
    | None -> false
    | Some name -> t.live name

  let store_entries t node key entries =
    match Hashtbl.find_opt t.stores (node : Core.Overlay.Node_id.t :> int) with
    | None -> ()
    | Some store -> Hashtbl.replace store key entries

  let read_entries t node key =
    match Hashtbl.find_opt t.stores (node : Core.Overlay.Node_id.t :> int) with
    | None -> []
    | Some store -> ( match Hashtbl.find_opt store key with Some es -> es | None -> [])

  let decayed_score r ~now ~halflife =
    r.score *. exp (log 0.5 *. ((now -. r.last) /. halflife))

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
        match Hashtbl.find_opt t.stores (holder : Core.Overlay.Node_id.t :> int) with
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
      Core.Telemetry.Metrics.set_gauge t.metrics "dht.hotspots"
        (float_of_int (Hashtbl.length t.placements))

  let place_replicas t cfg ~now ~key ~owner ~path =
    let entries = read_entries t owner key |> List.filter (fun e -> e.expiry > now) in
    if entries <> [] then begin
      let candidates =
        List.filter
          (fun n -> (not (Core.Overlay.Node_id.equal n owner)) && node_live t n)
          path
      in

      let tail =
        let rev = List.rev candidates in
        List.filteri (fun i _ -> i < cfg.hot_replicas + 2) rev
      in
      let holders =
        let arr = Array.of_list tail in
        Core.Util.Prng.shuffle t.rng arr;
        Array.to_list arr |> List.filteri (fun i _ -> i < cfg.hot_replicas)
      in
      if holders <> [] then begin
        List.iter (fun holder -> store_entries t holder key entries) holders;
        Hashtbl.replace t.placements key
          { holders; placed_expiry = now +. cfg.hot_ttl };
        Core.Telemetry.Metrics.incr t.metrics "dht.hotspot_replications";
        Core.Telemetry.Metrics.set_gauge t.metrics "dht.hotspots"
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

  let put t ~now ~from ~key ~value ~ttl =
    let owner, hops = route t ~from ~key in
    (match owner with
     | None -> ()
     | Some owner ->
       let targets =
         let base = replica_set t owner in

         match active_placement t ~now key with
         | None -> base
         | Some p -> base @ List.filter (fun h -> not (List.exists (Core.Overlay.Node_id.equal h) base)) p.holders
       in
       List.iter
         (fun node ->
           match Hashtbl.find_opt t.stores (node : Core.Overlay.Node_id.t :> int) with
           | None -> ()
           | Some store ->
             let live =
               (match Hashtbl.find_opt store key with Some es -> es | None -> [])
               |> List.filter (fun e -> e.expiry > now && e.value <> value)
             in
             let entries = { value; expiry = now +. ttl } :: live in
             let entries =
               if List.length entries > t.values_per_key then
                 List.filteri (fun i _ -> i < t.values_per_key) entries
               else entries
             in
             Hashtbl.replace store key entries)
         targets);
    Core.Telemetry.Metrics.incr t.metrics "dht.puts";
    Core.Telemetry.Metrics.observe t.metrics "dht.hops" (float_of_int hops);
    hops

  let live_values t ~now node key =
    match Hashtbl.find_opt t.stores (node : Core.Overlay.Node_id.t :> int) with
    | None -> None
    | Some store -> (
      match Hashtbl.find_opt store key with
      | None -> None
      | Some entries ->
        let live = List.filter (fun e -> e.expiry > now) entries in
        Hashtbl.replace store key live;
        Some (List.map (fun e -> e.value) live))

  let get t ~now ~from ~key =
    let from_id = node_id t from in
    let key_id = Core.Overlay.Node_id.of_string key in
    let path = Core.Overlay.Ring.lookup_path t.ring ~from:from_id ~key:key_id in
    let owner =
      match List.rev path with
      | last :: _ -> Some last
      | [] -> if Core.Overlay.Ring.mem t.ring from_id then Some from_id else None
    in

    (match t.hotspot, owner with
     | Some cfg, Some owner_id ->
       let rate = note_request t cfg ~now key in
       if rate >= cfg.threshold && active_placement t ~now key = None then
         place_replicas t cfg ~now ~key ~owner:owner_id ~path
     | _ -> ());

    let sloppy_hit =
      match t.hotspot with
      | None -> None
      | Some _ -> (
        match active_placement t ~now key with
        | None -> None
        | Some p ->
          let is_holder n = List.exists (Core.Overlay.Node_id.equal n) p.holders in
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
        Core.Telemetry.Metrics.incr t.metrics "dht.sloppy_hits";
        (vs, hop_count, 0)
      | None ->

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
    Core.Telemetry.Metrics.incr t.metrics "dht.gets";
    if fallbacks > 0 then
      Core.Telemetry.Metrics.incr t.metrics "dht.fallbacks" ~by:fallbacks;
    if values <> [] then Core.Telemetry.Metrics.incr t.metrics "dht.get-hits";
    Core.Telemetry.Metrics.observe t.metrics "dht.hops" (float_of_int hops);
    { values; hops; fallbacks; owner }

  let replica_names t ~key =
    Core.Overlay.Ring.successors t.ring (Core.Overlay.Node_id.of_string key) ~k:t.replicas
    |> List.filter_map (fun id ->
         match Hashtbl.find_opt t.names (id : Core.Overlay.Node_id.t :> int) with
         | Some name when t.live name -> Some name
         | _ -> None)
end
