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
  let problems = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if c.base <= 0.0 then reject "termination_penalty must be positive (got %g)" c.base;
  if c.max_window <= 0.0 then reject "quarantine_max must be positive (got %g)" c.max_window;
  if c.base > c.max_window then
    reject "termination_penalty (%g) exceeds quarantine_max (%g)" c.base c.max_window;
  List.iter
    (fun (pattern, base, max_window) ->
      if pattern = "" then reject "site_quarantine: empty site pattern";
      if base <= 0.0 then
        reject "site_quarantine[%s]: base window must be positive (got %g)" pattern base;
      if base > max_window then
        reject "site_quarantine[%s]: base window (%g) exceeds max (%g)" pattern base
          max_window)
    c.site_params;
  List.rev !problems

type t = {
  config : config; (* site overrides match first-match, like the admission share table *)
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t option;
  sites : (string, entry) Hashtbl.t;
  mutable bans : int;
}

let create config ~clock ?metrics () =
  {
    config;
    clock;
    metrics;
    sites = Hashtbl.create 8;
    bans = 0;
  }

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
  t.bans <- t.bans + 1;
  (match t.metrics with
   | Some m ->
     Nk_telemetry.Metrics.incr m ~labels:[ ("site", site) ] "quarantine.bans";
     Nk_telemetry.Metrics.observe m "quarantine.window" window
   | None -> ());
  window

let is_banned t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> false
  | Some e -> t.clock () < e.expiry

let remaining t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> 0.0
  | Some e -> Float.max 0.0 (e.expiry -. t.clock ())

let strikes t ~site =
  match Hashtbl.find_opt t.sites site with
  | None -> 0
  | Some e ->
    decay_strikes t e (t.clock ());
    e.strikes

let active t =
  let now = t.clock () in
  Hashtbl.fold
    (fun site e acc -> if now < e.expiry then (site, e.expiry) :: acc else acc)
    t.sites []
  |> List.sort compare

let bans t = t.bans

let forgive t ~site = Hashtbl.remove t.sites site
