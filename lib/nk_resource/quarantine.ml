type entry = {
  mutable strikes : int;
  mutable expiry : float;
  mutable anchor : float; (* decay bookkeeping: strikes shrink per full
                             [decay] period elapsed after [anchor] *)
}

type config = {
  base : float;
  max_window : float;
  decay : float;
  site_params : (string * float * float) list;
}

let default = { base = 30.0; max_window = 240.0; decay = 60.0; site_params = [] }

let validate c =
  let module F = Nk_util.Findings in
  let f = F.create () in
  F.positive f "termination_penalty" c.base;
  F.positive f "quarantine_max" c.max_window;
  if c.base > c.max_window then
    F.reject f "termination_penalty (%g) exceeds quarantine_max (%g)" c.base c.max_window;
  List.iter
    (fun (pattern, base, max_window) ->
      if pattern = "" then F.reject f "site_quarantine: empty site pattern";
      F.positive f (Printf.sprintf "site_quarantine[%s]: base window" pattern) base;
      if base > max_window then
        F.reject f "site_quarantine[%s]: base window (%g) exceeds max (%g)" pattern base
          max_window)
    c.site_params;
  F.to_list f

type t = {
  config : config; (* site overrides match first-match, like the admission share table *)
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t;
  sites : (string, entry) Hashtbl.t;
}

module Meter = struct
  let bans = Nk_telemetry.Metrics.Counter.family "quarantine.bans" ~label:"site"
  let window = Nk_telemetry.Metrics.Hist.v "quarantine.window"
end

let create config ~clock ~metrics = { config; clock; metrics; sites = Hashtbl.create 8 }

let params t ~site =
  match
    List.find_map
      (fun (pattern, base, max) -> if Shares.matches ~pattern site then Some (base, max) else None)
      t.config.site_params
  with
  | Some p -> p
  | None -> (t.config.base, t.config.max_window)

let decay_strikes t e now =
  let decay = t.config.decay in
  if decay > 0.0 && e.strikes > 0 && now > e.anchor then begin
    let periods = int_of_float ((now -. e.anchor) /. decay) in
    if periods > 0 then begin
      e.strikes <- max 0 (e.strikes - periods);
      e.anchor <- e.anchor +. (float_of_int periods *. decay)
    end
  end

let punish t ~site =
  let now = t.clock () in
  let e =
    match Hashtbl.find_opt t.sites site with
    | Some e -> e
    | None ->
      let e = { strikes = 0; expiry = 0.0; anchor = now } in
      Hashtbl.add t.sites site e;
      e
  in
  decay_strikes t e now;
  let base, max_window = params t ~site in
  let window = Float.min max_window (base *. (2.0 ** float_of_int e.strikes)) in
  e.strikes <- e.strikes + 1;
  e.expiry <- now +. window;
  (* Good behaviour only starts counting once the ban has expired. *)
  e.anchor <- e.expiry;
  Nk_telemetry.Metrics.Counter.incr_at t.metrics Meter.bans site;
  Nk_telemetry.Metrics.Hist.observe t.metrics Meter.window window;
  window

let remaining t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> 0.0
  | Some e -> Float.max 0.0 (e.expiry -. t.clock ())

let active t =
  let now = t.clock () in
  Hashtbl.fold
    (fun site e acc -> if now < e.expiry then (site, e.expiry) :: acc else acc)
    t.sites []
  |> List.sort compare
