type verdict = Admitted | Shed of { retry_after : float; reason : string }

type config = {
  target : float;
  interval : float;
  capacity : int;
  shares : (string * float) list;
}

(* The target sits well above the monitor's 80 ms CPU congestion
   backlog ([Node.cpu_congestion_backlog]): the Fig. 6 monitor handles
   resource hogs; admission control only kicks in when the host is
   drowning in sheer request volume. *)
let default = { target = 0.5; interval = 0.5; capacity = 64; shares = [] }

let validate c =
  let problems = ref [] in
  let reject fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  if c.capacity <= 0 then reject "admission_capacity must be positive (got %d)" c.capacity;
  if c.target <= 0.0 then reject "admission_target must be positive (got %g)" c.target;
  if c.interval <= 0.0 then reject "admission_interval must be positive (got %g)" c.interval;
  let share_total = ref 0.0 in
  List.iter
    (fun (pattern, f) ->
      if pattern = "" then reject "site_shares: empty site pattern";
      if f <= 0.0 || f > 1.0 then
        reject "site_shares[%s]: share must be in (0, 1] (got %g)" pattern f
      else begin
        share_total := !share_total +. f;
        if f *. float_of_int c.capacity < 0.5 then
          reject "site_shares[%s]: share %g%% of capacity %d rounds to zero slots" pattern
            (100.0 *. f) c.capacity
      end)
    c.shares;
  if !share_total > 1.0 +. 1e-9 then
    reject "site_shares: declared shares sum to %g%% of capacity (over 100%%)"
      (100.0 *. !share_total);
  List.rev !problems

type t = {
  config : config;
  shares : Shares.t;
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t option;
  occupancy : (string, int ref) Hashtbl.t;
  mutable total : int;
  mutable above_since : float option;
  mutable shedding_ : bool;
  mutable sheds : int;
  mutable window_start : float;
  mutable window_arrivals : int;
  mutable window_sheds : int;
  mutable last_shed_rate : float;
  (* Shares are enforced with hysteresis: once the queue fills (or a
     capacity shed fires), declared slices keep binding for a full
     control interval even if the queue momentarily drains. Without
     this, a batch of synchronized completions would let a greedy site
     grab slots past its slice during the refill — and hold them. *)
  mutable contended_until : float;
}

let create config ~clock ?metrics () =
  {
    config;
    shares = Shares.create config.shares;
    clock;
    metrics;
    occupancy = Hashtbl.create 8;
    total = 0;
    above_since = None;
    shedding_ = false;
    sheds = 0;
    window_start = clock ();
    window_arrivals = 0;
    window_sheds = 0;
    last_shed_rate = 0.0;
    contended_until = 0.0;
  }

let queue_length t = t.total

let sheds t = t.sheds

let shedding t = t.shedding_

let site_occupancy t ~site =
  match Hashtbl.find_opt t.occupancy site with Some r -> !r | None -> 0

(* The shed-rate reporting window (s). *)
let rate_window = 5.0

let roll_rate_window t now =
  if now -. t.window_start >= rate_window then begin
    t.last_shed_rate <-
      (if t.window_arrivals = 0 then 0.0
       else float_of_int t.window_sheds /. float_of_int t.window_arrivals);
    t.window_start <- now;
    t.window_arrivals <- 0;
    t.window_sheds <- 0
  end

let shed_rate t =
  roll_rate_window t (t.clock ());
  if t.window_arrivals > 0 then
    float_of_int t.window_sheds /. float_of_int t.window_arrivals
  else t.last_shed_rate

(* Each site's fair slice of the queue. Without a share table it is
   [capacity / active sites] (sites with requests currently queued, the
   arriving one included). With one — a provisioning plan lowered into
   [Shares] — a declared site gets its reserved fraction of capacity
   whether or not it is busy, and undeclared sites split whatever the
   declarations leave unreserved. *)
let fair_share t ~site =
  let declared = Shares.fraction t.shares ~site in
  match declared with
  | Some f ->
    max 1 (int_of_float ((f *. float_of_int t.config.capacity) +. 0.5))
  | None ->
    let unreserved =
      if Shares.is_empty t.shares then float_of_int t.config.capacity
      else
        Float.max 0.0 (float_of_int t.config.capacity *. (1.0 -. Shares.reserved t.shares))
    in
    let active_undeclared =
      Hashtbl.fold
        (fun s r acc ->
          if !r > 0 && s <> site && Shares.fraction t.shares ~site:s = None then acc + 1
          else acc)
        t.occupancy 0
      + 1
    in
    max 1 (int_of_float unreserved / active_undeclared)

let slot t site =
  match Hashtbl.find_opt t.occupancy site with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.occupancy site r;
    r

let offer t ~site ~queue_delay =
  let now = t.clock () in
  roll_rate_window t now;
  t.window_arrivals <- t.window_arrivals + 1;
  (match t.metrics with
   | Some m -> Nk_telemetry.Metrics.observe m "admission.queue_delay" queue_delay
   | None -> ());
  (* CoDel-style detection: transient bursts above the target are fine;
     only delay that stays above it for a full interval flips the node
     into shedding, and the first dip back below the target flips it
     out. *)
  if queue_delay < t.config.target then begin
    t.above_since <- None;
    t.shedding_ <- false
  end
  else begin
    match t.above_since with
    | None -> t.above_since <- Some now
    | Some since -> if now -. since >= t.config.interval then t.shedding_ <- true
  end;
  let occ = slot t site in
  if t.total >= t.config.capacity then t.contended_until <- now +. t.config.interval;
  let contended =
    2 * t.total >= t.config.capacity
    || ((not (Shares.is_empty t.shares)) && now < t.contended_until)
  in
  let reason =
    if t.total >= t.config.capacity then Some "queue-full"
    else if t.shedding_ then Some "overload"
    else if contended && !occ + 1 > fair_share t ~site then
      (* The queue is contended and this site is already over its
         slice: shed it before it starves everyone else. *)
      Some "fair-share"
    else None
  in
  match reason with
  | None ->
    incr occ;
    t.total <- t.total + 1;
    Admitted
  | Some reason ->
    t.sheds <- t.sheds + 1;
    t.window_sheds <- t.window_sheds + 1;
    (match t.metrics with
     | Some m ->
       Nk_telemetry.Metrics.incr m
         ~labels:[ ("site", site); ("reason", reason) ]
         "admission.sheds"
     | None -> ());
    (* Tell the client when the backlog should have drained back to the
       target — cheap for us, actionable for it. *)
    let retry_after = Float.max t.config.interval (queue_delay -. t.config.target) in
    Shed { retry_after; reason }

let reset t =
  Hashtbl.reset t.occupancy;
  t.total <- 0;
  t.above_since <- None;
  t.shedding_ <- false

let release t ~site =
  (match Hashtbl.find_opt t.occupancy site with
   | Some r when !r > 0 -> decr r
   | _ -> ());
  if t.total > 0 then t.total <- t.total - 1
