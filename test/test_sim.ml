(* The discrete-event simulator: clock, event ordering, daemon events,
   links, CPUs, and the simulated web. *)

open Core.Sim
open Core.Http

let start = 1_136_073_600.0

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> seen := ("b", Sim.now sim) :: !seen);
  Sim.schedule sim ~delay:1.0 (fun () -> seen := ("a", Sim.now sim) :: !seen);
  Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-6)))) "ordered with timestamps"
    [ ("a", start +. 1.0); ("b", start +. 2.0) ]
    (List.rev !seen)

let test_ties_fifo () =
  let sim = Sim.create () in
  let seen = ref [] in
  List.iter
    (fun tag -> Sim.schedule sim ~delay:1.0 (fun () -> seen := tag :: !seen))
    [ "first"; "second"; "third" ];
  Sim.run sim;
  Alcotest.(check (list string)) "fifo ties" [ "first"; "second"; "third" ] (List.rev !seen)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let result = ref 0.0 in
  Sim.schedule sim ~delay:1.0 (fun () ->
      Sim.schedule sim ~delay:1.0 (fun () -> result := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "nested" (start +. 2.0) !result

let test_run_until () =
  let sim = Sim.create () in
  let ran = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr ran);
  Sim.schedule sim ~delay:10.0 (fun () -> incr ran);
  Sim.run ~until:(start +. 5.0) sim;
  Alcotest.(check int) "only early event" 1 !ran;
  Alcotest.(check (float 1e-6)) "clock at deadline" (start +. 5.0) (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "late event after full run" 2 !ran

let test_daemon_events_dont_block_run () =
  let sim = Sim.create () in
  let daemon_fires = ref 0 in
  let rec heartbeat () =
    incr daemon_fires;
    Sim.schedule sim ~daemon:true ~delay:1.0 heartbeat
  in
  Sim.schedule sim ~daemon:true ~delay:1.0 heartbeat;
  let work_done = ref false in
  Sim.schedule sim ~delay:3.5 (fun () -> work_done := true);
  Sim.run sim;
  Alcotest.(check bool) "work done" true !work_done;
  Alcotest.(check bool) "daemons ran while work pending" true (!daemon_fires >= 3);
  Alcotest.(check bool) "run returned despite daemons" true (!daemon_fires < 10)

let test_negative_delay_clamped () =
  let sim = Sim.create () in
  let at = ref 0.0 in
  Sim.schedule sim ~delay:(-5.0) (fun () -> at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "clamped to now" start !at

let test_net_latency () =
  let sim = Sim.create () in
  let net = Net.create sim ~default_latency:0.1 ~default_bandwidth:1_000_000.0 () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let arrived = ref 0.0 in
  Net.send net ~src:a ~dst:b ~size:100_000 (fun () -> arrived := Sim.now sim);
  Sim.run sim;
  (* 0.1 s latency + 100 KB / 1 MBps = 0.1 s transmit *)
  Alcotest.(check (float 1e-6)) "latency + transmit" (start +. 0.2) !arrived

let test_net_bandwidth_sharing () =
  (* Two back-to-back transfers on the same link serialize through the
     shared pipe. *)
  let sim = Sim.create () in
  let net = Net.create sim ~default_latency:0.0 ~default_bandwidth:1_000_000.0 () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.send net ~src:a ~dst:b ~size:1_000_000 (fun () -> t1 := Sim.now sim);
  Net.send net ~src:a ~dst:b ~size:1_000_000 (fun () -> t2 := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-3)) "first after 1s" (start +. 1.0) !t1;
  Alcotest.(check (float 1e-3)) "second queued to 2s" (start +. 2.0) !t2

let test_net_explicit_link () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let a = Net.add_host net ~name:"a" () in
  let b = Net.add_host net ~name:"b" () in
  (* The paper's WAN emulation: 80 ms delay, 8 Mbps cap. *)
  Net.connect net a b ~latency:0.08 ~bandwidth:1_000_000.0;
  let est = Net.transfer_time_estimate net ~src:a ~dst:b ~size:1_000_000 in
  Alcotest.(check (float 1e-6)) "estimate" 1.08 est;
  let est_rev = Net.transfer_time_estimate net ~src:b ~dst:a ~size:1_000_000 in
  Alcotest.(check (float 1e-6)) "symmetric" 1.08 est_rev

let test_local_send_instant () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let a = Net.add_host net ~name:"a" () in
  let at = ref 0.0 in
  Net.send net ~src:a ~dst:a ~size:1_000_000 (fun () -> at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "same-host delivery is free" start !at

let test_cpu_queueing () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let h = Net.add_host net ~name:"h" () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.cpu_run net h ~seconds:1.0 (fun () -> t1 := Sim.now sim);
  Net.cpu_run net h ~seconds:1.0 (fun () -> t2 := Sim.now sim);
  Alcotest.(check (float 1e-6)) "backlog visible" 2.0 (Net.cpu_backlog net h);
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "first at 1s" (start +. 1.0) !t1;
  Alcotest.(check (float 1e-6)) "second serialized" (start +. 2.0) !t2;
  Alcotest.(check (float 1e-6)) "backlog drained" 0.0 (Net.cpu_backlog net h)

let test_cpu_speed_scaling () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let fast = Net.add_host net ~name:"fast" ~cpu_speed:2.0 () in
  let done_at = ref 0.0 in
  Net.cpu_run net fast ~seconds:1.0 (fun () -> done_at := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-6)) "half the time" (start +. 0.5) !done_at


let test_net_egress_cap () =
  (* A host's shared uplink: transfers to *different* destinations still
     serialize through the per-host egress pipe. *)
  let sim = Sim.create () in
  let net = Net.create sim ~default_latency:0.0 ~default_bandwidth:100_000_000.0 () in
  let server = Net.add_host net ~name:"server" () in
  Net.set_egress_limit net server 1_000_000.0;
  let c1 = Net.add_host net ~name:"c1" () in
  let c2 = Net.add_host net ~name:"c2" () in
  let t1 = ref 0.0 and t2 = ref 0.0 in
  Net.send net ~src:server ~dst:c1 ~size:1_000_000 (fun () -> t1 := Sim.now sim);
  Net.send net ~src:server ~dst:c2 ~size:1_000_000 (fun () -> t2 := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 0.05)) "first ~1s" (start +. 1.0) !t1;
  Alcotest.(check (float 0.05)) "second queued behind the uplink" (start +. 2.0) !t2;
  (* Inbound traffic is not limited by the egress cap. *)
  let t3 = ref 0.0 in
  Net.send net ~src:c1 ~dst:server ~size:1_000_000 (fun () -> t3 := Sim.now sim);
  Sim.run sim;
  Alcotest.(check bool) "inbound fast" true (!t3 -. Sim.now sim < 0.2)

let make_web () =
  let sim = Sim.create () in
  let net = Net.create sim () in
  let web = Httpd.create net in
  (sim, net, web)

let test_httpd_fetch () =
  let sim, net, web = make_web () in
  let server = Net.add_host net ~name:"server.org" () in
  Httpd.serve web ~host:server ~hostnames:[ "server.org" ] (fun req k ->
      k
        (Message.response
           ~body:("you asked for " ^ req.Message.url.Url.path)
           ()));
  let client = Net.add_host net ~name:"client" () in
  let got = ref "" in
  Httpd.fetch web ~from:client (Message.request "http://server.org/hello") (fun resp ->
      got := Body.to_string resp.Message.resp_body);
  Sim.run sim;
  Alcotest.(check string) "handler saw path" "you asked for /hello" !got

let test_httpd_unknown_host () =
  let sim, _net, web = make_web () in
  let client = Net.add_host (Httpd.net web) ~name:"client" () in
  let status = ref 0 in
  Httpd.fetch web ~from:client (Message.request "http://nowhere.invalid/") (fun resp ->
      status := resp.Message.status);
  Sim.run sim;
  Alcotest.(check int) "502" 502 !status

let test_httpd_fetch_via () =
  let sim, net, web = make_web () in
  let proxy = Net.add_host net ~name:"proxy" () in
  Httpd.serve web ~host:proxy ~hostnames:[ "proxy" ] (fun _req k ->
      k (Message.response ~body:"proxied" ()));
  let client = Net.add_host net ~name:"client" () in
  let got = ref "" in
  (* The URL host names a server that does not exist; fetch_via ignores it. *)
  Httpd.fetch_via web ~from:client ~via:proxy (Message.request "http://anything.org/x")
    (fun resp -> got := Body.to_string resp.Message.resp_body);
  Sim.run sim;
  Alcotest.(check string) "via proxy" "proxied" !got

let test_httpd_response_isolation () =
  (* Each fetch must get a private copy of the response. *)
  let sim, net, web = make_web () in
  let shared = Message.response ~body:"shared" () in
  let server = Net.add_host net ~name:"s.org" () in
  Httpd.serve web ~host:server ~hostnames:[ "s.org" ] (fun _req k -> k shared);
  let client = Net.add_host net ~name:"c" () in
  let r1 = ref None in
  Httpd.fetch web ~from:client (Message.request "http://s.org/") (fun resp -> r1 := Some resp);
  Sim.run sim;
  Message.set_body (Option.get !r1) "mutated";
  Alcotest.(check string) "original untouched" "shared" (Body.to_string shared.Message.resp_body)

(* {1 The event queue against the old boxed heap} *)

(* Popped events leave nothing reachable behind. The old heap filled
   fresh capacity with its first entry and left a moved entry in its
   old slot, so both closures below stayed alive. *)
let test_queue_releases_popped () =
  let sim = Sim.create () in
  let weak = Weak.create 2 in
  let[@inline never] schedule_two () =
    for i = 0 to 1 do
      let cell = ref i in
      let thunk () = incr cell in
      Weak.set weak i (Some thunk);
      Sim.schedule sim ~delay:(float_of_int i) thunk
    done
  in
  schedule_two ();
  Sim.run sim;
  Gc.full_major ();
  Alcotest.(check (pair bool bool)) "both collected" (false, false)
    (Weak.check weak 0, Weak.check weak 1);
  (* Still reachable here, so its queue was scanned by the collection. *)
  Alcotest.(check int) "queue drained" 0 (Sim.pending sim)

module type SIM = sig
  type t

  val create : ?start_time:float -> unit -> t

  val now : t -> float

  val schedule : t -> ?daemon:bool -> delay:float -> (unit -> unit) -> unit

  val schedule_at : t -> ?daemon:bool -> float -> (unit -> unit) -> unit

  val run : ?until:float -> t -> unit

  val step : t -> bool

  val pending : t -> int

  val executed : t -> int
end

type queue_op = At of int * bool | After of int * bool | Step | Until of int | Run_all

let print_queue_op = function
  | At (n, d) -> Printf.sprintf "At(%d,%b)" n d
  | After (n, d) -> Printf.sprintf "After(%d,%b)" n d
  | Step -> "Step"
  | Until n -> Printf.sprintf "Until %d" n
  | Run_all -> "Run"

(* Times are multiples of 0.5 from a small range, so priorities repeat,
   and [At] lands in the past once the clock has moved (clamped to
   now), as do negative [After] delays. Every third event schedules a
   child when it runs. *)
let queue_trace (module S : SIM) ops =
  let sim = S.create ~start_time:0.0 () in
  let log = ref [] and next = ref 0 in
  let rec fresh () =
    let id = !next in
    incr next;
    fun () ->
      log := (id, S.now sim, 0, 0) :: !log;
      if id mod 3 = 0 then S.schedule sim ~delay:(float_of_int (id mod 4) *. 0.5) (fresh ())
  in
  List.iter
    (fun op ->
      (match op with
       | At (n, daemon) -> S.schedule_at sim ~daemon (float_of_int n *. 0.5) (fresh ())
       | After (n, daemon) ->
         S.schedule sim ~daemon ~delay:(float_of_int (n - 2) *. 0.5) (fresh ())
       | Step -> ignore (S.step sim)
       | Until n -> S.run ~until:(float_of_int n *. 0.5) sim
       | Run_all -> S.run sim);
      log := (-1, S.now sim, S.pending sim, S.executed sim) :: !log)
    ops;
  List.rev !log

let queue_matches_reference_prop =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun n d -> At (n, d)) (int_bound 12) bool);
          (4, map2 (fun n d -> After (n, d)) (int_bound 8) bool);
          (3, return Step);
          (1, map (fun n -> Until n) (int_bound 16));
          (1, return Run_all);
        ])
  in
  QCheck.Test.make ~name:"queue: pop order equals the boxed-heap reference" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_queue_op) QCheck.Gen.(list_size (int_bound 300) op))
    (fun ops ->
      queue_trace (module Reference_substrate.Sim) ops = queue_trace (module Sim) ops)

(* {1 Cancellable timers against a sorted-list model} *)

(* The obvious queue: every pending event in one list sorted by
   (time, scheduling order), a timer being a daemon event that [cancel]
   filters out by its sequence number. *)
module Model = struct
  type entry = { time : float; seq : int; daemon : bool; is_timer : bool; thunk : unit -> unit }

  type t = {
    mutable clock : float;
    mutable queue : entry list;
    mutable seq : int;
    mutable executed : int;
  }

  type timer = int

  let create ?(start_time = 1_136_073_600.0) () =
    { clock = start_time; queue = []; seq = 0; executed = 0 }

  let now t = t.clock

  let add t ~daemon ~is_timer time thunk =
    let e = { time = Float.max time t.clock; seq = t.seq; daemon; is_timer; thunk } in
    t.seq <- t.seq + 1;
    let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq) in
    let rec insert = function
      | x :: rest when before x e -> x :: insert rest
      | l -> e :: l
    in
    t.queue <- insert t.queue;
    e.seq

  let schedule_at t ?(daemon = false) time thunk =
    ignore (add t ~daemon ~is_timer:false time thunk)

  let schedule t ?daemon ~delay thunk = schedule_at t ?daemon (t.clock +. delay) thunk

  let timer t ~delay thunk = add t ~daemon:true ~is_timer:true (t.clock +. delay) thunk

  let cancel t seq = t.queue <- List.filter (fun e -> not (e.is_timer && e.seq = seq)) t.queue

  let step t =
    match t.queue with
    | [] -> false
    | e :: rest ->
      t.queue <- rest;
      t.clock <- e.time;
      t.executed <- t.executed + 1;
      e.thunk ();
      true

  let run ?until t =
    match until with
    | None -> while List.exists (fun e -> not e.daemon) t.queue && step t do () done
    | Some deadline ->
      while match t.queue with e :: _ -> e.time <= deadline | [] -> false do
        ignore (step t)
      done;
      if t.clock < deadline then t.clock <- deadline

  let pending t = List.length t.queue

  let executed t = t.executed
end

module type TIMERS = sig
  include SIM

  type timer

  val timer : t -> delay:float -> (unit -> unit) -> timer

  val cancel : t -> timer -> unit
end

type timer_op =
  | Ev of queue_op
  | Timer of int
  | Cancel of int

let print_timer_op = function
  | Ev op -> print_queue_op op
  | Timer n -> Printf.sprintf "Timer %d" n
  | Cancel i -> Printf.sprintf "Cancel %d" i

(* As [queue_trace], with timers beside the events. [Cancel i] cancels
   the i-th timer made so far (modulo their number), which may have
   fired or been cancelled already. Running events make more of both:
   every third one schedules a child event, every seventh a timer, and
   every fifth cancels a timer. A log entry [(-2, _, id, _)] records a
   timer [id] that ran after it was cancelled. *)
let timer_trace (module S : TIMERS) ops =
  let sim = S.create ~start_time:0.0 () in
  let log = ref [] and next = ref 0 in
  let timers = ref [||] in
  let fired = Hashtbl.create 16 and cancelled = Hashtbl.create 16 in
  let cancel i =
    let n = Array.length !timers in
    if n > 0 then begin
      let h, id = !timers.(i mod n) in
      if not (Hashtbl.mem fired id) then Hashtbl.replace cancelled id ();
      S.cancel sim h
    end
  in
  let rec fresh () =
    let id = !next in
    incr next;
    fun () ->
      Hashtbl.replace fired id ();
      if Hashtbl.mem cancelled id then log := (-2, S.now sim, id, 0) :: !log;
      log := (id, S.now sim, 0, 0) :: !log;
      if id mod 3 = 0 then S.schedule sim ~delay:(float_of_int (id mod 4) *. 0.5) (fresh ());
      if id mod 7 = 0 then make_timer (id mod 5);
      if id mod 5 = 0 then cancel id
  and make_timer n =
    let id = !next in
    let h = S.timer sim ~delay:(float_of_int (n - 2) *. 0.5) (fresh ()) in
    timers := Array.append !timers [| (h, id) |]
  in
  List.iter
    (fun op ->
      (match op with
       | Ev (At (n, daemon)) -> S.schedule_at sim ~daemon (float_of_int n *. 0.5) (fresh ())
       | Ev (After (n, daemon)) ->
         S.schedule sim ~daemon ~delay:(float_of_int (n - 2) *. 0.5) (fresh ())
       | Ev Step -> ignore (S.step sim)
       | Ev (Until n) -> S.run ~until:(float_of_int n *. 0.5) sim
       | Ev Run_all -> S.run sim
       | Timer n -> make_timer n
       | Cancel i -> cancel i);
      log := (-1, S.now sim, S.pending sim, S.executed sim) :: !log)
    ops;
  List.rev !log

let timers_match_model_prop =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun n d -> Ev (At (n, d))) (int_bound 12) bool);
          (3, map2 (fun n d -> Ev (After (n, d))) (int_bound 8) bool);
          (4, map (fun n -> Timer n) (int_bound 10));
          (3, map (fun i -> Cancel i) (int_bound 50));
          (3, return (Ev Step));
          (1, map (fun n -> Ev (Until n)) (int_bound 16));
          (1, return (Ev Run_all));
        ])
  in
  QCheck.Test.make ~name:"timers: order, pending and executed equal the sorted-list model"
    ~count:300
    (QCheck.make ~print:QCheck.Print.(list print_timer_op) QCheck.Gen.(list_size (int_bound 300) op))
    (fun ops ->
      let got = timer_trace (module Sim) ops in
      (not (List.exists (fun (id, _, _, _) -> id = -2) got))
      && got = timer_trace (module Model) ops)

(* A cancelled timer leaves the queue at once and drops its thunk, even
   while its handle is still held. *)
let test_cancel_releases_thunk () =
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  let[@inline never] arm () =
    let cell = ref 0 in
    let thunk () = incr cell in
    Weak.set weak 0 (Some thunk);
    Sim.timer sim ~delay:5.0 thunk
  in
  let h = arm () in
  Sim.schedule sim ~delay:1.0 ignore;
  Sim.cancel sim h;
  Alcotest.(check int) "out of the queue" 1 (Sim.pending sim);
  Gc.full_major ();
  Alcotest.(check bool) "thunk collected" false (Weak.check weak 0);
  Sim.cancel sim (Sys.opaque_identity h);
  Sim.run sim;
  Alcotest.(check int) "only the event ran" 1 (Sim.executed sim)

(* {1 The network model against the old id-keyed tables} *)

module type NET = sig
  type t

  type host

  val create : Sim.t -> ?default_latency:float -> ?default_bandwidth:float -> unit -> t

  val metrics : t -> Core.Telemetry.Metrics.t

  val set_faults : t -> Core.Faults.Plan.t -> unit

  val add_host : t -> name:string -> ?cpu_speed:float -> unit -> host

  val host_name : host -> string

  val connect : t -> host -> host -> latency:float -> bandwidth:float -> unit

  val linked : t -> host -> host list

  val set_egress_limit : t -> host -> float -> unit

  val send : t -> src:host -> dst:host -> size:int -> (unit -> unit) -> unit

  val transfer_time_estimate : t -> src:host -> dst:host -> size:int -> float

  val cpu_run : t -> host -> seconds:float -> (unit -> unit) -> unit

  val cpu_backlog : t -> host -> float
end

type net_op =
  | Connect of int * int * int
  | Egress of int * int
  | Send of int * int * int
  | Cpu of int * int
  | Advance of int

let print_net_op = function
  | Connect (a, b, p) -> Printf.sprintf "Connect(%d,%d,%d)" a b p
  | Egress (h, b) -> Printf.sprintf "Egress(%d,%d)" h b
  | Send (a, b, s) -> Printf.sprintf "Send(%d,%d,%d)" a b s
  | Cpu (h, w) -> Printf.sprintf "Cpu(%d,%d)" h w
  | Advance n -> Printf.sprintf "Advance %d" n

type net_obs =
  | Delivered of int * float
  | Host of int * string list * float
  | Estimates of float list
  | Counters of int * int * int

(* Four hosts with different CPU speeds. Under the fault plan host h1
   crashes (clearing its CPU) and restarts, h3 crashes for good, and
   every link drops or spikes at random from the plan's seeded stream. *)
let net_trace (module N : NET) ~faults ops =
  let sim = Sim.create ~start_time:0.0 () in
  let net = N.create sim ~default_latency:0.001 ~default_bandwidth:1_000_000.0 () in
  let hosts =
    Array.mapi
      (fun i speed -> N.add_host net ~name:(Printf.sprintf "h%d" i) ~cpu_speed:speed ())
      [| 1.0; 2.0; 0.5; 1.0 |]
  in
  if faults then begin
    let plan = Core.Faults.Plan.create ~seed:11 () in
    Core.Faults.Plan.crash plan ~host:"h1" ~at:0.05 ~restart:0.12 ();
    Core.Faults.Plan.crash plan ~host:"h3" ~at:0.2 ();
    Core.Faults.Plan.drop_link plan ~probability:0.1 ();
    Core.Faults.Plan.spike_link plan ~probability:0.2 ~extra:0.03 ();
    N.set_faults net plan
  end;
  let log = ref [] and next = ref 0 in
  let delivered () =
    let id = !next in
    incr next;
    fun () -> log := Delivered (id, Sim.now sim) :: !log
  in
  let observe () =
    Array.iteri
      (fun i h ->
        log :=
          Host (i, List.map N.host_name (N.linked net h), N.cpu_backlog net h)
          :: !log)
      hosts;
    let estimates =
      Array.to_list hosts
      |> List.concat_map (fun src ->
             Array.to_list hosts
             |> List.map (fun dst -> N.transfer_time_estimate net ~src ~dst ~size:20_000))
    in
    log := Estimates estimates :: !log
  in
  List.iter
    (fun op ->
      (match op with
       | Connect (a, b, p) ->
         N.connect net hosts.(a) hosts.(b) ~latency:(0.002 *. float_of_int p)
           ~bandwidth:(250_000.0 *. float_of_int (p + 1))
       | Egress (h, b) -> N.set_egress_limit net hosts.(h) (400_000.0 *. float_of_int (b + 1))
       | Send (a, b, s) ->
         N.send net ~src:hosts.(a) ~dst:hosts.(b) ~size:(1 + (s * 7_919)) (delivered ())
       | Cpu (h, w) -> N.cpu_run net hosts.(h) ~seconds:(0.004 *. float_of_int w) (delivered ())
       | Advance n -> Sim.run ~until:(Sim.now sim +. (0.01 *. float_of_int n)) sim);
      observe ())
    ops;
  Sim.run sim;
  observe ();
  let m = N.metrics net in
  log :=
    Counters
      ( Core.Telemetry.Metrics.counter m "net.dropped",
        Core.Telemetry.Metrics.counter m "net.lost-callbacks",
        Core.Telemetry.Metrics.counter m "node.crashes" )
    :: !log;
  List.rev !log

let net_matches_reference_prop =
  let host = QCheck.Gen.int_bound 3 in
  let op =
    QCheck.Gen.(
      frequency
        [
          (2, map3 (fun a b p -> Connect (a, b, p)) host host (int_bound 4));
          (1, map2 (fun h b -> Egress (h, b)) host (int_bound 3));
          (6, map3 (fun a b s -> Send (a, b, s)) host host (int_bound 40));
          (3, map2 (fun h w -> Cpu (h, w)) host (int_bound 10));
          (2, map (fun n -> Advance n) (int_bound 6));
        ])
  in
  QCheck.Test.make ~name:"net: deliveries and state equal the id-keyed reference" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair bool (list print_net_op))
       QCheck.Gen.(pair bool (list_size (int_bound 60) op)))
    (fun (faults, ops) ->
      net_trace (module Reference_substrate.Net) ~faults ops = net_trace (module Net) ~faults ops)

let suite =
  [
    Alcotest.test_case "clock advances through events" `Quick test_clock_advances;
    Alcotest.test_case "equal-time events run FIFO" `Quick test_ties_fifo;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run ~until stops early" `Quick test_run_until;
    Alcotest.test_case "daemon events do not block run" `Quick
      test_daemon_events_dont_block_run;
    Alcotest.test_case "negative delays clamp to now" `Quick test_negative_delay_clamped;
    Alcotest.test_case "net: latency + transmit time" `Quick test_net_latency;
    Alcotest.test_case "net: shared pipe serializes transfers" `Quick
      test_net_bandwidth_sharing;
    Alcotest.test_case "net: explicit WAN link (80ms/8Mbps)" `Quick test_net_explicit_link;
    Alcotest.test_case "net: per-host egress cap" `Quick test_net_egress_cap;
    Alcotest.test_case "net: same-host sends are free" `Quick test_local_send_instant;
    Alcotest.test_case "cpu: work queues" `Quick test_cpu_queueing;
    Alcotest.test_case "cpu: speed scaling" `Quick test_cpu_speed_scaling;
    Alcotest.test_case "httpd: fetch by hostname" `Quick test_httpd_fetch;
    Alcotest.test_case "httpd: unknown host yields 502" `Quick test_httpd_unknown_host;
    Alcotest.test_case "httpd: fetch_via overrides resolution" `Quick test_httpd_fetch_via;
    Alcotest.test_case "httpd: responses are copied" `Quick test_httpd_response_isolation;
    Alcotest.test_case "queue: popped events are not retained" `Quick
      test_queue_releases_popped;
    QCheck_alcotest.to_alcotest queue_matches_reference_prop;
    QCheck_alcotest.to_alcotest net_matches_reference_prop;
    QCheck_alcotest.to_alcotest timers_match_model_prop;
    Alcotest.test_case "timer: cancel drops the thunk at once" `Quick test_cancel_releases_thunk;
  ]
