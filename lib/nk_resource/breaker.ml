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
  let problems = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if c.failure_threshold <= 0 then
    reject "breaker_failures must be positive (got %d)" c.failure_threshold;
  if c.error_rate <= 0.0 || c.error_rate > 1.0 then
    reject "breaker_error_rate must be in (0, 1] (got %g)" c.error_rate;
  if c.window <= 0.0 then reject "breaker_window must be positive (got %g)" c.window;
  if c.cooldown <= 0.0 then reject "breaker_cooldown must be positive (got %g)" c.cooldown;
  if c.cooldown > c.max_cooldown then
    reject "breaker_cooldown (%g) exceeds breaker_max_cooldown (%g)" c.cooldown c.max_cooldown;
  List.rev !problems

type t = {
  name : string;
  config : config;
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t option;
  mutable state : state;
  mutable consecutive : int;
  mutable window_start : float;
  mutable window_successes : int;
  mutable window_failures : int;
  mutable open_until : float;
  mutable next_cooldown : float;
  mutable probing : bool;
  mutable opens : int;
  mutable probes : int;
}

let create ~name config ~clock ?metrics () =
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
    opens = 0;
    probes = 0;
  }

let state t = t.state

let opens t = t.opens

let probes t = t.probes

let incr_metric t counter =
  match t.metrics with
  | Some m -> Nk_telemetry.Metrics.incr m ~labels:[ ("upstream", t.name) ] counter
  | None -> ()

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
  t.opens <- t.opens + 1;
  t.open_until <- now +. t.next_cooldown;
  t.next_cooldown <- Float.min t.config.max_cooldown (t.next_cooldown *. 2.0);
  incr_metric t "breaker.opens"

let acquire t =
  let now = t.clock () in
  match t.state with
  | Closed -> `Proceed
  | Open ->
    if now >= t.open_until then begin
      (* The cooldown elapsed: half-open, admit exactly one probe. *)
      t.state <- Half_open;
      t.probing <- true;
      t.probes <- t.probes + 1;
      incr_metric t "breaker.probes";
      `Proceed
    end
    else `Reject (t.open_until -. now)
  | Half_open ->
    if t.probing then `Reject t.config.cooldown
    else begin
      t.probing <- true;
      t.probes <- t.probes + 1;
      incr_metric t "breaker.probes";
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
