(* Congestion control (Fig. 6): the monitor, per-site throttles and
   [terminate_site]; and the node's daemons. *)

open Edge

let throttle_fraction t site =
  Hashtbl.fold
    (fun _resource table acc ->
      match Hashtbl.find_opt table site with Some f -> Float.max acc f | None -> acc)
    t.throttles 0.0

let resource_throttles t resource =
  match Hashtbl.find_opt t.throttles resource with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 8 in
    Hashtbl.add t.throttles resource table;
    table

(* Fig. 6: the CONTROL period, the WAIT(TIMEOUT) before the kill
   decision, and the congestion thresholds: CPU backlog (s), and script
   heap and body bytes per control interval. *)
let control_interval = 1.0
let control_timeout = 0.5
let cpu_congestion_backlog = 0.08
let memory_congestion_bytes = 128.0 *. 1024.0 *. 1024.0
let bandwidth_congestion_bytes = 50.0 *. 1024.0 *. 1024.0

let window_rate t value =
  let dt = now t -. t.window_start in
  if dt <= 0.0 then 0.0 else value /. dt

let reset_window t =
  t.mem_window <- 0.0;
  t.bw_window <- 0.0;
  t.window_start <- now t

(* The final (post-timeout) check uses a higher bar: termination is for
   congestion that throttling demonstrably cannot clear, not for a node
   hovering at its capacity. *)
let is_congested t ~final resource =
  let scale = if final then 3.0 else 1.0 in
  match resource with
  | Nk_resource.Resource.Cpu ->
    Nk_sim.Net.cpu_backlog t.net t.host > scale *. cpu_congestion_backlog
  | Nk_resource.Resource.Memory ->
    window_rate t t.mem_window
    >= scale *. memory_congestion_bytes /. control_interval
  | Nk_resource.Resource.Bandwidth ->
    window_rate t t.bw_window
    >= scale *. bandwidth_congestion_bytes /. control_interval
  | Nk_resource.Resource.Running_time | Nk_resource.Resource.Bytes_transferred -> false

let terminate_site t ~site =
  (* Kill the scripting contexts of every cached stage owned by the
     site (its [nakika.js] and whatever it chained to); in-flight
     pipelines die at their next evaluation step. *)
  let owned =
    Nk_cache.Memo_cache.fold t.stage_cache ~init:[] ~f:(fun acc url entry ->
        if entry.site = site then (url, entry) :: acc else acc)
  in
  List.iter
    (fun (url, entry) ->
      Nk_script.Interp.kill (Nk_pipeline.Stage.context entry.stage);
      Nk_cache.Memo_cache.remove t.stage_cache url)
    owned;
  (* Refuse the site's requests for an escalating (but decaying) ban
     window — repeat offenders wait longer, reformed ones recover. *)
  ignore (Nk_resource.Quarantine.punish t.quarantine ~site)

let control_step t monitor control =
  List.iter (fun r -> ignore (control monitor r)) Nk_resource.Resource.all;
  reset_window t

let start_monitor t accounting =
  let monitor =
    Nk_resource.Monitor.create ~accounting
      ~is_congested:(fun ~final r -> is_congested t ~final r)
      ~throttle:(fun ~site ~fraction ~resource ->
        (* [fraction] is the site's contribution to congestion; scale it
           by the congestion severity so a single active site is not
           blocked outright when the node is only slightly over. *)
        let over limit level = if level <= limit then 0.0 else 1.0 -. (limit /. level) in
        let severity =
          Float.max
            (over cpu_congestion_backlog (Nk_sim.Net.cpu_backlog t.net t.host))
            (over (memory_congestion_bytes /. control_interval) (window_rate t t.mem_window))
        in
        let table = resource_throttles t resource in
        let existing =
          match Hashtbl.find_opt table site with Some f -> f | None -> 0.0
        in
        Hashtbl.replace table site (Float.max existing (fraction *. Float.min 0.95 severity)))
      ~unthrottle:(fun resource -> Hashtbl.reset (resource_throttles t resource))
      ~terminate:(fun ~site -> terminate_site t ~site)
      ~events:t.events ~metrics:t.metrics
  in
  let rec cycle () =
    control_step t monitor Nk_resource.Monitor.begin_control;
    Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:control_timeout (fun () ->
        control_step t monitor Nk_resource.Monitor.finish_control;
        Nk_sim.Sim.schedule t.sim ~daemon:true
          ~delay:(Float.max 0.05 (control_interval -. control_timeout))
          cycle)
  in
  Nk_sim.Sim.schedule t.sim ~daemon:true ~delay:control_interval cycle

(* --- daemons ------------------------------------------------------------ *)

(* Soft-state maintenance: DHT announcements are TTL'd ([dht_ttl]),
   typically shorter than cached entries' lifetimes; re-announce fresh
   cache contents so cooperative caching keeps finding them (Coral-style
   refresh). *)
let start_reannouncer t dht =
  Nk_sim.Sim.every t.sim ~period:(Float.max 5.0 (t.cfg.Config.dht_ttl /. 2.0)) (fun () ->
      Nk_cache.Http_cache.fold_fresh t.cache ~now:(now t) ~init:()
        ~f:(fun () key expiry ->
          Fetch.announce t dht ~key:(lazy (Nk_overlay.Dht.Key.of_string key)) ~expiry))

let start_log_poster t =
  Nk_sim.Sim.every t.sim ~period:30.0 (fun () ->
      Hashtbl.iter
        (fun site url ->
          match Hashtbl.find_opt t.log_entries site with
          | Some entries when !entries <> [] ->
            let body = String.concat "\n" (List.rev !entries) in
            entries := [];
            let req = Nk_http.Message.request ~meth:Nk_http.Method_.POST ~body url in
            Nk_sim.Httpd.fetch t.web ~from:t.host req (fun _ ->
                Counter.incr t.metrics Meter.log_posts)
          | _ -> ())
        t.log_urls)

(* The node's one health tick per report interval: its load view is
   computed once, published as [health.*] gauges (for [nakika stats
   --health] and merged benchmark registries) and reported to the
   redirector with the liveness incarnation, so a report from before a
   crash can't shadow the restarted node's view. The report carries the
   node's pressure when it runs diffusion; the other diffusion nodes
   read their offload candidates from the same table. A crashed node
   reports nothing: the redirector's own [host_down] filter covers the
   gap. *)
let start_health_tick t =
  let was_down = ref false in
  Nk_sim.Sim.every t.sim ~period:health_report_interval (fun () ->
      let down = Nk_sim.Net.host_down t.net t.host in
      (* Requests admitted before a crash died with the host: their
         queue slots must not haunt admission after restart. *)
      if !was_down && not down then
        Option.iter Nk_resource.Admission.reset t.admission;
      was_down := down;
      if not down then begin
        let h = health t in
        let pressure = Option.map (fun _ -> pressure t) t.diffusion in
        let set = Gauge.set t.metrics in
        set Meter.queue_delay h.queue_delay;
        set Meter.shed_rate h.shed_rate;
        set Meter.open_breakers (float_of_int (List.length h.open_breakers));
        set Meter.quarantined_sites (float_of_int (List.length h.quarantined));
        Option.iter (set Meter.pressure) pressure;
        Nk_overlay.Redirector.report t.redirector t.host
          ~incarnation:(Nk_sim.Net.incarnation t.net t.host)
          ?pressure ~queue_delay:h.queue_delay ~shed_rate:h.shed_rate ()
      end)
