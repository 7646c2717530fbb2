(* Hedged requests: when a replica fetch has outlived the upstream's
   p95, the straggler is probably a straggler — issue one backup fetch
   to the next live replica and take whichever answers first. The
   governor below is what keeps the cure from becoming the disease: a
   token bucket refilled per *primary* fetch at [rate] (5% by default)
   bounds hedges to that fraction of total fetch load by construction,
   which pairs exactly with firing at the p95 — about 5% of fetches
   ever get slow enough to want one. *)

type t = {
  rate : float; (* tokens earned per primary fetch *)
  burst : float; (* bucket ceiling *)
  mutable tokens : float;
  metrics : Nk_telemetry.Metrics.t;
}

let default_rate = 0.05

let create ~rate ?metrics () =
  if rate <= 0.0 || rate > 1.0 then invalid_arg "Hedge.create: rate must be in (0, 1]";
  let burst = Float.max 1.0 (rate *. 100.0) in
  let metrics = match metrics with Some m -> m | None -> Nk_telemetry.Metrics.create () in
  { rate; burst; tokens = burst; metrics }

module Meter = struct
  let issued = Nk_telemetry.Metrics.Counter.v "hedge.issued"
  let wins = Nk_telemetry.Metrics.Counter.v "hedge.wins"
  let cancelled = Nk_telemetry.Metrics.Counter.v "hedge.cancelled"
end

let incr t counter = Nk_telemetry.Metrics.Counter.incr t.metrics counter

let note_primary t = t.tokens <- Float.min t.burst (t.tokens +. t.rate)

let try_hedge t =
  if t.tokens >= 1.0 then begin
    t.tokens <- t.tokens -. 1.0;
    incr t Meter.issued;
    true
  end
  else false

let won t = incr t Meter.wins

let cancelled t = incr t Meter.cancelled

(* The hedge delay: the upstream's observed p95 latency, read from the
   node's fetch-latency histogram. Below [min_samples] observations the
   quantile is noise, so a [fallback] (typically a fraction of the
   per-hop timeout) stands in until the histogram has seen enough. *)
let min_samples = 20

let delay ?histogram ~fallback () =
  match histogram with
  | Some h
    when Nk_telemetry.Metrics.Histogram.count h >= min_samples ->
    let p95 = Nk_telemetry.Metrics.Histogram.quantile h 95.0 in
    if p95 > 0.0 then p95 else fallback
  | _ -> fallback
