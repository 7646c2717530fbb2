(* Congestion-based resource control (Fig. 6): the state, its reads and
   the monitor that writes it. A node without controls holds no [t]; the
   request path passes its [t option], or calls only under [Some], so
   such a node charges, hashes and draws nothing here. *)

module Resource = Nk_resource.Resource
module Accounting = Nk_resource.Accounting
module Quarantine = Nk_resource.Quarantine

(* Script heap and body bytes since [start]; its writes allocate nothing. *)
type window = { mutable mem : float; mutable bw : float; mutable start : float }

type t = {
  accounting : Accounting.t; (* read only by the monitor and [usage] *)
  mutable throttles : (Resource.t * (string, float) Hashtbl.t) list;
  (* per throttled resource: site -> reject probability *)
  quarantine : Quarantine.t; (* escalating, decaying ban windows *)
  events : Nk_telemetry.Events.t; (* the monitor's decisions *)
  window : window;
  net : Nk_sim.Net.t;
  host : Nk_sim.Net.host; (* whose CPU backlog is the CPU congestion signal *)
}

let quarantine t = t.quarantine
let events t = t.events

let quarantined t = List.map fst (Quarantine.active t.quarantine)

(* Seconds left on [site]'s ban; 0 when it serves none. *)
let ban controls ~site =
  match controls with Some t -> Quarantine.remaining t.quarantine ~site | None -> 0.0

(* Whether to reject a request of [site] for its throttle: with the
   site's reject probability, by one draw from [rng] when it has one. *)
let throttled controls ~rng ~site =
  match controls with
  | None -> false
  | Some t ->
    let fraction =
      List.fold_left
        (fun acc (_, table) ->
          match Hashtbl.find_opt table site with Some f -> Float.max acc f | None -> acc)
        0.0 t.throttles
    in
    fraction > 0.0 && Nk_util.Prng.float rng 1.0 < fraction

(* A pipeline run's usage, charged to its site; called only under [Some],
   so a node without controls never computes [cpu]. *)
let account t ~site ~cpu ~heap ~response ~elapsed =
  let heap = float_of_int heap in
  let bytes = float_of_int (Nk_http.Message.content_length response) in
  Accounting.charge t.accounting ~site Resource.Cpu cpu;
  Accounting.charge t.accounting ~site Resource.Memory heap;
  Accounting.charge t.accounting ~site Resource.Bandwidth bytes;
  Accounting.charge t.accounting ~site Resource.Running_time elapsed;
  Accounting.charge t.accounting ~site Resource.Bytes_transferred bytes;
  t.window.mem <- t.window.mem +. heap;
  t.window.bw <- t.window.bw +. bytes

(* A script's own fetch: its body counts against the site's bandwidth. *)
let charge_fetch controls ~site resp =
  match controls with
  | Some t ->
    let bytes = float_of_int (Nk_http.Message.content_length resp) in
    Accounting.charge t.accounting ~site Resource.Bandwidth bytes;
    t.window.bw <- t.window.bw +. bytes
  | None -> ()

(* The [site.usage] scripts read to adapt to congestion (§3.2). *)
let usage controls ~site name =
  match (controls, List.find_opt (fun r -> Resource.to_string r = name) Resource.all) with
  | Some t, Some r -> Accounting.usage t.accounting ~site r
  | _ -> 0.0

(* --- the monitor ---------------------------------------------------------- *)

(* Fig. 6: the CONTROL period, the WAIT(TIMEOUT) before the kill
   decision, and the congestion thresholds: CPU backlog (s), and script
   heap and body bytes per control interval. *)
let control_interval = 1.0
let control_timeout = 0.5
let cpu_congestion_backlog = 0.08
let memory_congestion_bytes = 128.0 *. 1024.0 *. 1024.0
let bandwidth_congestion_bytes = 50.0 *. 1024.0 *. 1024.0

let backlog t = Nk_sim.Net.cpu_backlog t.net t.host

let window_rate t value =
  let dt = Nk_sim.Sim.now (Nk_sim.Net.sim t.net) -. t.window.start in
  if dt <= 0.0 then 0.0 else value /. dt

(* The final (post-timeout) check uses a higher bar: termination is for
   congestion that throttling demonstrably cannot clear, not for a node
   hovering at its capacity. *)
let is_congested t ~final resource =
  let scale = if final then 3.0 else 1.0 in
  match resource with
  | Resource.Cpu -> backlog t > scale *. cpu_congestion_backlog
  | Resource.Memory ->
    window_rate t t.window.mem >= scale *. memory_congestion_bytes /. control_interval
  | Resource.Bandwidth ->
    window_rate t t.window.bw >= scale *. bandwidth_congestion_bytes /. control_interval
  | Resource.Running_time | Resource.Bytes_transferred -> false

(* [fraction] is the site's contribution to congestion; scaled by the
   congestion severity, so a single active site is not blocked outright
   when the node is only slightly over. *)
let throttle t ~site ~fraction ~resource =
  let over limit level = if level <= limit then 0.0 else 1.0 -. (limit /. level) in
  let severity =
    Float.max
      (over cpu_congestion_backlog (backlog t))
      (over (memory_congestion_bytes /. control_interval) (window_rate t t.window.mem))
  in
  let table =
    match List.assoc_opt resource t.throttles with
    | Some table -> table
    | None ->
      let table = Hashtbl.create 8 in
      t.throttles <- (resource, table) :: t.throttles;
      table
  in
  let existing = Option.value (Hashtbl.find_opt table site) ~default:0.0 in
  Hashtbl.replace table site (Float.max existing (fraction *. Float.min 0.95 severity))

let control_step t monitor control =
  List.iter (fun r -> ignore (control monitor r)) Resource.all;
  t.window.mem <- 0.0;
  t.window.bw <- 0.0;
  t.window.start <- Nk_sim.Sim.now (Nk_sim.Net.sim t.net)

(* A node's controls, with the monitor running on [host]'s CPU backlog.
   Terminating a site kills its scripting contexts ([kill_stages site])
   and bans it for an escalating, decaying window ([config]): repeat
   offenders wait longer, reformed ones recover. *)
let start config ~net ~host ~clock ~metrics ~kill_stages =
  let t =
    {
      accounting = Accounting.create ();
      throttles = [];
      quarantine = Quarantine.create config ~clock ~metrics;
      events = Nk_telemetry.Events.create ~clock;
      window = { mem = 0.0; bw = 0.0; start = clock () };
      net;
      host;
    }
  in
  let monitor =
    Nk_resource.Monitor.create ~accounting:t.accounting
      ~is_congested:(fun ~final r -> is_congested t ~final r)
      ~throttle:(fun ~site ~fraction ~resource -> throttle t ~site ~fraction ~resource)
      ~unthrottle:(fun resource -> t.throttles <- List.remove_assoc resource t.throttles)
      ~terminate:(fun ~site ->
        kill_stages site;
        ignore (Quarantine.punish t.quarantine ~site))
      ~events:t.events ~metrics
  in
  let sim = Nk_sim.Net.sim net in
  let rec cycle () =
    control_step t monitor Nk_resource.Monitor.begin_control;
    Nk_sim.Sim.schedule sim ~daemon:true ~delay:control_timeout (fun () ->
        control_step t monitor Nk_resource.Monitor.finish_control;
        Nk_sim.Sim.schedule sim ~daemon:true
          ~delay:(Float.max 0.05 (control_interval -. control_timeout))
          cycle)
  in
  Nk_sim.Sim.schedule sim ~daemon:true ~delay:control_interval cycle;
  t
