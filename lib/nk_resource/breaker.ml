type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;
  error_rate : float;
  window : float;
  cooldown : float;
  max_cooldown : float;
}

let default =
  { failure_threshold = 3; error_rate = 0.5; window = 10.0; cooldown = 5.0; max_cooldown = 60.0 }

let validate c =
  let module F = Nk_util.Findings in
  let f = F.create () in
  F.positive_int f "breaker_failures" c.failure_threshold;
  if c.error_rate <= 0.0 || c.error_rate > 1.0 then
    F.reject f "breaker_error_rate must be in (0, 1] (got %g)" c.error_rate;
  F.positive f "breaker_window" c.window;
  F.positive f "breaker_cooldown" c.cooldown;
  if c.cooldown > c.max_cooldown then
    F.reject f "breaker_cooldown (%g) exceeds breaker_max_cooldown (%g)" c.cooldown c.max_cooldown;
  F.to_list f

type t = {
  name : string;
  config : config;
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t;
  mutable state : state;
  mutable consecutive : int;
  mutable window_start : float;
  mutable window_successes : int;
  mutable window_failures : int;
  mutable open_until : float;
  mutable next_cooldown : float;
  mutable probing : bool;
}

let create ~name config ~clock ~metrics =
  {
    name;
    config;
    clock;
    metrics;
    state = Closed;
    consecutive = 0;
    window_start = clock ();
    window_successes = 0;
    window_failures = 0;
    open_until = 0.0;
    next_cooldown = config.cooldown;
    probing = false;
  }

let state t = t.state

module Meter = struct
  let opens = Nk_telemetry.Metrics.Counter.family "breaker.opens" ~label:"upstream"
  let probes = Nk_telemetry.Metrics.Counter.family "breaker.probes" ~label:"upstream"
end

let incr_metric t family = Nk_telemetry.Metrics.Counter.incr_at t.metrics family t.name

let roll_window t now =
  if now -. t.window_start >= t.config.window then begin
    t.window_start <- now;
    t.window_successes <- 0;
    t.window_failures <- 0
  end

(* Open with the current backoff, then double it (capped); a successful
   probe resets the backoff to the base cooldown. *)
let trip t now =
  t.state <- Open;
  t.probing <- false;
  t.open_until <- now +. t.next_cooldown;
  t.next_cooldown <- Float.min t.config.max_cooldown (t.next_cooldown *. 2.0);
  incr_metric t Meter.opens

let acquire t =
  let now = t.clock () in
  match t.state with
  | Closed -> `Proceed
  | Open ->
    if now >= t.open_until then begin
      (* The cooldown elapsed: half-open, admit exactly one probe. *)
      t.state <- Half_open;
      t.probing <- true;
      incr_metric t Meter.probes;
      `Proceed
    end
    else `Reject (t.open_until -. now)
  | Half_open ->
    if t.probing then `Reject t.config.cooldown
    else begin
      t.probing <- true;
      incr_metric t Meter.probes;
      `Proceed
    end

let success t =
  let now = t.clock () in
  roll_window t now;
  t.window_successes <- t.window_successes + 1;
  match t.state with
  | Closed -> t.consecutive <- 0
  | Half_open | Open ->
    (* The probe came back healthy — or a request admitted before the
       trip did, which is just as good a signal. Close and forgive the
       accumulated backoff. *)
    t.state <- Closed;
    t.consecutive <- 0;
    t.probing <- false;
    t.next_cooldown <- t.config.cooldown

(* The error-rate trip needs at least this many samples in the window. *)
let min_samples = 8

let failure t =
  let now = t.clock () in
  roll_window t now;
  t.window_failures <- t.window_failures + 1;
  match t.state with
  | Closed ->
    t.consecutive <- t.consecutive + 1;
    let samples = t.window_successes + t.window_failures in
    let rate = float_of_int t.window_failures /. float_of_int (max 1 samples) in
    if
      t.consecutive >= t.config.failure_threshold
      || (samples >= min_samples && rate >= t.config.error_rate)
    then trip t now
  | Half_open ->
    (* The probe failed: back to open with a doubled window. *)
    trip t now
  | Open -> () (* late failure from a request admitted before the trip *)
