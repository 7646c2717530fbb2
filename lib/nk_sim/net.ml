type host = { id : int; name : string; cpu_speed : float }

type link_state = { mutable busy_until : float }

type link_params = { latency : float; bandwidth : float }

type t = {
  sim : Sim.t;
  default : link_params;
  links : (int * int, link_params) Hashtbl.t;
  linked : (int, host list) Hashtbl.t; (* per host: the far ends of its [links] *)
  pipes : (int * int, link_state) Hashtbl.t;
  cpus : (int, link_state) Hashtbl.t;
  sent : (int, int ref) Hashtbl.t;
  egress : (int, float * link_state) Hashtbl.t; (* bandwidth cap + shared pipe *)
  byname : (string, host) Hashtbl.t;
  metrics : Nk_telemetry.Metrics.t;
  mutable faults : Nk_faults.Plan.t option;
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
    sent = Hashtbl.create 16;
    egress = Hashtbl.create 4;
    byname = Hashtbl.create 16;
    metrics = Nk_telemetry.Metrics.create ();
    faults = None;
    next_id = 0;
  }

let sim t = t.sim

let metrics t = t.metrics

let add_host t ~name ?(cpu_speed = 1.0) () =
  let host = { id = t.next_id; name; cpu_speed } in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.cpus host.id { busy_until = 0.0 };
  Hashtbl.replace t.sent host.id (ref 0);
  Hashtbl.replace t.byname host.name host;
  host

let host_name h = h.name

let faults t = t.faults

let host_down t host =
  match t.faults with
  | None -> false
  | Some plan -> Nk_faults.Plan.is_down plan ~now:(Sim.now t.sim) host.name

let set_faults t plan =
  t.faults <- Some plan;
  (* A crash clears the host's CPU queue: everything queued or running is
     lost, and the backlog signal drops to zero until new work arrives
     after restart. Daemon events so fault plans never keep [run] alive. *)
  List.iter
    (fun (name, at) ->
      Sim.schedule_at t.sim ~daemon:true at (fun () ->
          Nk_telemetry.Metrics.incr t.metrics "node.crashes";
          match Hashtbl.find_opt t.byname name with
          | None -> ()
          | Some host ->
            let cpu = Hashtbl.find t.cpus host.id in
            cpu.busy_until <- Sim.now t.sim))
    (Nk_faults.Plan.crash_times plan)

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

(* Wrap a callback that logically executes on [host]: if the host has
   crashed since it was captured (incarnation advanced) or is down when
   it would fire, it is suppressed. The state the callback closes over
   died with the host. *)
let guard t host k =
  match t.faults with
  | None -> k
  | Some plan ->
    let epoch = Nk_faults.Plan.incarnation plan ~now:(Sim.now t.sim) host.name in
    fun () ->
      let now = Sim.now t.sim in
      if
        Nk_faults.Plan.is_down plan ~now host.name
        || Nk_faults.Plan.incarnation plan ~now host.name <> epoch
      then Nk_telemetry.Metrics.incr t.metrics "net.lost-callbacks"
      else k ()

let send t ~src ~dst ~size k =
  let fate =
    match t.faults with
    | None -> `Deliver 0.0
    | Some plan ->
      let now = Sim.now t.sim in
      if Nk_faults.Plan.is_down plan ~now src.name then `Drop
      else if src.id = dst.id then `Deliver 0.0
      else Nk_faults.Plan.link_fate plan ~now ~src:src.name ~dst:dst.name
  in
  match fate with
  | `Drop -> Nk_telemetry.Metrics.incr t.metrics "net.dropped"
  | `Deliver extra ->
    let k = guard t dst k in
    if src.id = dst.id then Sim.schedule t.sim ~delay:0.0 k
    else begin
      let { latency; bandwidth } = params t src dst in
      let pipe = pipe t src dst in
      let now = Sim.now t.sim in
      (* The transfer serializes through the source's shared egress pipe
         (when capped) and then the per-pair link pipe. *)
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
      (match Hashtbl.find_opt t.sent src.id with
       | Some r -> r := !r + size
       | None -> ());
      Sim.schedule_at t.sim (start +. transmit +. latency +. extra) k
    end

let transfer_time_estimate t ~src ~dst ~size =
  if src.id = dst.id then 0.0
  else begin
    let { latency; bandwidth } = params t src dst in
    latency +. (float_of_int size /. bandwidth)
  end

let cpu_run t host ~seconds k =
  let cpu = Hashtbl.find t.cpus host.id in
  let now = Sim.now t.sim in
  let base =
    match t.faults with
    | Some plan when Nk_faults.Plan.is_down plan ~now host.name -> (
        (* Work handed to a down host waits for the restart; if it never
           restarts, the work is simply lost. *)
        match Nk_faults.Plan.restart_time plan ~now host.name with
        | Some r -> r
        | None -> Float.infinity)
    | _ -> now
  in
  if base = Float.infinity then
    Nk_telemetry.Metrics.incr t.metrics "net.lost-callbacks"
  else begin
    let start = Float.max base cpu.busy_until in
    let work = seconds /. host.cpu_speed in
    cpu.busy_until <- start +. work;
    Sim.schedule_at t.sim cpu.busy_until (guard t host k)
  end

let cpu_backlog t host =
  let cpu = Hashtbl.find t.cpus host.id in
  Float.max 0.0 (cpu.busy_until -. Sim.now t.sim)

let bytes_sent t host =
  match Hashtbl.find_opt t.sent host.id with Some r -> !r | None -> 0
