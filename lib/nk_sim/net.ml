(* All per-host state lives on the host: its CPU, the hosts
   [connect]ed to it, its egress cap, and one int-keyed table of
   out-links by destination id. An out-link holds the pair's link
   parameters and its shared pipe; [send] creates it with the default
   parameters on first use, and [connect] overrides them in place, so
   a pipe keeps its backlog across a re-[connect]. *)

type pipe = { mutable busy_until : float }

type link = { mutable latency : float; mutable bandwidth : float; mutable link_busy : float }

type egress = { cap : float; mutable egress_busy : float }

module Links = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash id = id (* ids are dense, so the identity spreads them *)
end)

type host = {
  id : int;
  name : string;
  cpu_speed : float;
  cpu : pipe;
  mutable linked : host list; (* the far ends of its [connect]s *)
  mutable egress : egress option; (* bandwidth cap + shared pipe *)
  out : link Links.t; (* by destination id *)
}

type t = {
  sim : Sim.t;
  default_latency : float;
  default_bandwidth : float;
  byname : (string, host) Hashtbl.t;
  metrics : Nk_telemetry.Metrics.t;
  mutable faults : Nk_faults.Plan.t option;
  mutable next_id : int;
}

let create sim ?(default_latency = 0.0002) ?(default_bandwidth = 12_500_000.0) () =
  {
    sim;
    default_latency;
    default_bandwidth;
    byname = Hashtbl.create 16;
    metrics = Nk_telemetry.Metrics.create ();
    faults = None;
    next_id = 0;
  }

module Counter = Nk_telemetry.Metrics.Counter

module Meter = struct
  let crashes = Counter.v "node.crashes"
  let dropped = Counter.v "net.dropped"
  let lost_callbacks = Counter.v "net.lost-callbacks"
end

let sim t = t.sim

let metrics t = t.metrics

let add_host t ~name ?(cpu_speed = 1.0) () =
  let host =
    { id = t.next_id; name; cpu_speed; cpu = { busy_until = 0.0 }; linked = [];
      egress = None; out = Links.create 8 }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.byname host.name host;
  host

let host_name h = h.name

let faults t = t.faults

let host_down t host =
  match t.faults with
  | None -> false
  | Some plan -> Nk_faults.Plan.is_down plan ~now:(Sim.now t.sim) host.name

let incarnation t host =
  match t.faults with
  | None -> 0
  | Some plan -> Nk_faults.Plan.incarnation plan ~now:(Sim.now t.sim) host.name

let set_faults t plan =
  t.faults <- Some plan;
  (* A crash clears the host's CPU queue: everything queued or running is
     lost, and the backlog signal drops to zero until new work arrives
     after restart. Daemon events so fault plans never keep [run] alive. *)
  List.iter
    (fun (name, at) ->
      Sim.schedule_at t.sim ~daemon:true at (fun () ->
          Counter.incr t.metrics Meter.crashes;
          match Hashtbl.find_opt t.byname name with
          | None -> ()
          | Some host -> host.cpu.busy_until <- Sim.now t.sim))
    (Nk_faults.Plan.crash_times plan)

let linked _ host = host.linked

let out_link t src dst =
  match Links.find src.out dst.id with
  | link -> link
  | exception Not_found ->
    let link = { latency = t.default_latency; bandwidth = t.default_bandwidth; link_busy = 0.0 } in
    Links.add src.out dst.id link;
    link

let connect t a b ~latency ~bandwidth =
  if not (List.memq b a.linked) then begin
    a.linked <- b :: a.linked;
    if a.id <> b.id then b.linked <- a :: b.linked
  end;
  let set src dst =
    let link = out_link t src dst in
    link.latency <- latency;
    link.bandwidth <- bandwidth
  in
  set a b;
  set b a

let set_egress_limit _ host bandwidth = host.egress <- Some { cap = bandwidth; egress_busy = 0.0 }

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
      then Counter.incr t.metrics Meter.lost_callbacks
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
  | `Drop -> Counter.incr t.metrics Meter.dropped
  | `Deliver extra ->
    let k = guard t dst k in
    if src.id = dst.id then Sim.schedule t.sim ~delay:0.0 k
    else begin
      let link = out_link t src dst in
      let now = Sim.now t.sim in
      (* The transfer serializes through the source's shared egress pipe
         (when capped) and then the per-pair link pipe. *)
      let egress_done =
        match src.egress with
        | None -> now
        | Some e ->
          let start = Float.max now e.egress_busy in
          e.egress_busy <- start +. (float_of_int size /. e.cap);
          e.egress_busy
      in
      let start = Float.max egress_done link.link_busy in
      let transmit = float_of_int size /. link.bandwidth in
      link.link_busy <- start +. transmit;
      Sim.schedule_at t.sim (start +. transmit +. link.latency +. extra) k
    end

let transfer_time_estimate t ~src ~dst ~size =
  if src.id = dst.id then 0.0
  else begin
    match Links.find src.out dst.id with
    | link -> link.latency +. (float_of_int size /. link.bandwidth)
    | exception Not_found -> t.default_latency +. (float_of_int size /. t.default_bandwidth)
  end

let cpu_run t host ~seconds k =
  let cpu = host.cpu in
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
    Counter.incr t.metrics Meter.lost_callbacks
  else begin
    let start = Float.max base cpu.busy_until in
    let work = seconds /. host.cpu_speed in
    cpu.busy_until <- start +. work;
    Sim.schedule_at t.sim cpu.busy_until (guard t host k)
  end

let cpu_backlog t host = Float.max 0.0 (host.cpu.busy_until -. Sim.now t.sim)
