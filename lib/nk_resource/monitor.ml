type t = {
  accounting : Accounting.t;
  is_congested : final:bool -> Resource.t -> bool;
  throttle : site:string -> fraction:float -> resource:Resource.t -> unit;
  unthrottle : Resource.t -> unit;
  terminate : site:string -> unit;
  mutable pending : (Resource.t * (string * float) list) list;
  (* per resource, the usage-ranked sites of its begin phase, largest first *)
  events : Nk_telemetry.Events.t;
  metrics : Nk_telemetry.Metrics.t;
}

let create ~accounting ~is_congested ~throttle ~unthrottle ~terminate ~events ~metrics =
  {
    accounting;
    is_congested;
    throttle;
    unthrottle;
    terminate;
    pending = [];
    events;
    metrics;
  }

module Meter = struct
  let throttles = Nk_telemetry.Metrics.Counter.family "monitor.throttles" ~label:"site"
  let unthrottles = Nk_telemetry.Metrics.Counter.family "monitor.unthrottles" ~label:"site"
  let terminations = Nk_telemetry.Metrics.Counter.family "monitor.terminations" ~label:"site"
end

(* Every enforcement decision leaves a structured event (and a labeled
   counter) naming the offending site, so a bench or operator can audit
   exactly why traffic was refused. *)
let emit t ~counter ~event ~site ~attrs =
  Nk_telemetry.Metrics.Counter.incr_at t.metrics counter site;
  Nk_telemetry.Events.record t.events ~attrs:(("site", site) :: attrs) event

let begin_control t resource =
  let congested = t.is_congested ~final:false resource in
  (* The interval closes regardless: uncongested, a renewable folds a
     zero (consumption under no congestion never counts, and the average
     decays so past penalization is forgotten), and a nonrenewable its
     actual consumption. *)
  Accounting.close_resource_interval t.accounting resource ~congested;
  if not congested then `Clear
  else begin
    let ranked =
      Accounting.active_sites t.accounting
      |> List.map (fun site -> (site, Accounting.usage t.accounting ~site resource))
      |> List.filter (fun (_, u) -> u > 0.0)
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    t.pending <- (resource, ranked) :: List.remove_assoc resource t.pending;
    let total = List.fold_left (fun acc (_, u) -> acc +. u) 0.0 ranked in
    let name = Resource.to_string resource in
    `Congested
      (List.map
         (fun (site, u) ->
           let fraction = if total > 0.0 then u /. total else 0.0 in
           t.throttle ~site ~fraction ~resource;
           emit t ~counter:Meter.throttles ~event:"throttle" ~site
             ~attrs:[ ("resource", name); ("fraction", Printf.sprintf "%.3f" fraction) ];
           (site, fraction))
         ranked)
  end

let finish_control t resource =
  let ranked = Option.value (List.assoc_opt resource t.pending) ~default:[] in
  t.pending <- List.remove_assoc resource t.pending;
  (* Restoration is as auditable as enforcement: every site throttled in
     the begin phase gets a matching [unthrottle] event when the clamp
     is lifted. *)
  let attrs = [ ("resource", Resource.to_string resource) ] in
  match ranked with
  | (site, _) :: _ when t.is_congested ~final:true resource ->
    t.terminate ~site;
    emit t ~counter:Meter.terminations ~event:"terminate" ~site ~attrs;
    `Terminated site
  | _ ->
    t.unthrottle resource;
    List.iter
      (fun (site, _) -> emit t ~counter:Meter.unthrottles ~event:"unthrottle" ~site ~attrs)
      ranked;
    `Unthrottled
