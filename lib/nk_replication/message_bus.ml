type member = {
  host : Nk_sim.Net.host;
  subscriptions : (string, payload:string -> from:string -> unit) Hashtbl.t; (* by topic *)
}

(* One message on its way to one receiver; every retry reuses it. *)
type pending = {
  p_from : string;
  p_dst : string;
  p_payload : string;
  handler : payload:string -> from:string -> unit;
  mutable attempts : int;
  mutable delivered : bool; (* the handler ran: later copies only ack *)
  mutable acked : bool;
  mutable retry : Nk_sim.Sim.timer option; (* the latest attempt's *)
}

let retained_cap = 128

type t = {
  net : Nk_sim.Net.t;
  members : (string, member) Hashtbl.t;
  retained : (string, (string * string) list ref) Hashtbl.t;
  (* topic -> (from, payload), newest first: durable-subscription backlog *)
  rng : Nk_util.Prng.t; (* deterministic backoff jitter *)
  metrics : Nk_telemetry.Metrics.t;
}

let create ?(seed = 42) net =
  { net; members = Hashtbl.create 8; retained = Hashtbl.create 8;
    rng = Nk_util.Prng.create seed; metrics = Nk_telemetry.Metrics.create () }

let metrics t = t.metrics

module Counter = Nk_telemetry.Metrics.Counter

module Meter = struct
  let published = Counter.v "bus.published"
  let delivered = Counter.v "bus.delivered"
  let retries = Counter.v "bus.retries"
  let dead_letters = Counter.v "bus.dead_letters"
  let payload_bytes = Nk_telemetry.Metrics.Hist.v "bus.payload-bytes"
end

let net t = t.net

let attach t ~name ~host =
  if not (Hashtbl.mem t.members name) then
    Hashtbl.add t.members name { host; subscriptions = Hashtbl.create 4 }

(* Backoff before retry [n] (1-based): 0.5 s doubling up to 8 s, plus up
   to 25% deterministic jitter from the bus's own PRNG, so synchronized
   retries de-correlate yet replay identically from the seed. *)
let backoff_base = 0.5
let backoff_cap = 8.0

let backoff t n =
  let base = Float.min backoff_cap (backoff_base *. (2. ** float_of_int (n - 1))) in
  base +. Nk_util.Prng.float t.rng (0.25 *. base)

(* A message still unacked after this many attempts is a dead letter. *)
let max_attempts = 8

(* One delivery attempt: data message to the receiver, ack message back,
   and a daemon retry timer in case the ack never arrives, which the ack
   cancels. Either leg may be dropped by the fault plan; the
   [delivered] flag keeps the handler exactly-once under retries. *)
let rec attempt t p =
  match (Hashtbl.find_opt t.members p.p_from, Hashtbl.find_opt t.members p.p_dst) with
  | Some sender, Some receiver ->
    p.attempts <- p.attempts + 1;
    let size = String.length p.p_payload + 64 in
    Nk_sim.Net.send t.net ~src:sender.host ~dst:receiver.host ~size (fun () ->
        if not p.delivered then begin
          p.delivered <- true;
          Counter.incr t.metrics Meter.delivered;
          p.handler ~payload:p.p_payload ~from:p.p_from
        end;
        (* Ack even duplicate deliveries: the first ack may have been the
           lost leg. *)
        Nk_sim.Net.send t.net ~src:receiver.host ~dst:sender.host ~size:64 (fun () ->
            p.acked <- true;
            Option.iter (Nk_sim.Sim.cancel (Nk_sim.Net.sim t.net)) p.retry));
    let sim = Nk_sim.Net.sim t.net in
    p.retry <-
      Some
        (Nk_sim.Sim.timer sim ~delay:(backoff t p.attempts) (fun () ->
             if not p.acked then begin
               if p.attempts >= max_attempts then Counter.incr t.metrics Meter.dead_letters
               else begin
                 Counter.incr t.metrics Meter.retries;
                 attempt t p
               end
             end))
  | _ -> ()

let deliver t m ~name ~from ~topic ~payload =
  match (Hashtbl.find_opt t.members from, Hashtbl.find_opt m.subscriptions topic) with
  | Some _, Some handler ->
    attempt t
      { p_from = from; p_dst = name; p_payload = payload; handler; attempts = 0;
        delivered = false; acked = false; retry = None }
  | _ -> ()

let subscribe t ~name ~topic ~handler =
  match Hashtbl.find_opt t.members name with
  | None -> invalid_arg (Printf.sprintf "Message_bus.subscribe: %s is not attached" name)
  | Some m ->
    let fresh = not (Hashtbl.mem m.subscriptions topic) in
    Hashtbl.replace m.subscriptions topic handler;
    if fresh then begin
      (* Durable subscription: replay the topic's backlog so late
         joiners converge (JORAM-style durability). *)
      match Hashtbl.find_opt t.retained topic with
      | Some backlog ->
        List.iter
          (fun (from, payload) ->
            if from <> name then deliver t m ~name ~from ~topic ~payload)
          (List.rev !backlog)
      | None -> ()
    end

let truncate_backlog l = if List.length l > retained_cap then List.filteri (fun i _ -> i < retained_cap) l else l

let publish t ~from ~topic ~payload =
  match Hashtbl.find_opt t.members from with
  | None -> invalid_arg (Printf.sprintf "Message_bus.publish: %s is not attached" from)
  | Some _ ->
    Counter.incr t.metrics Meter.published;
    Nk_telemetry.Metrics.Hist.observe t.metrics Meter.payload_bytes
      (float_of_int (String.length payload));
    (match Hashtbl.find_opt t.retained topic with
     | Some backlog -> backlog := truncate_backlog ((from, payload) :: !backlog)
     | None -> Hashtbl.add t.retained topic (ref [ (from, payload) ]));
    Hashtbl.iter
      (fun name m ->
        (* Per-link FIFO in Net keeps same-size messages in order, which
           gives per-sender in-order delivery. *)
        if name <> from then deliver t m ~name ~from ~topic ~payload)
      t.members

