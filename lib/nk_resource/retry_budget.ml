(* Retry budgets: per-upstream token buckets that refill in proportion
   to successes, so retries are bounded by the upstream's demonstrated
   ability to answer. Under a healthy upstream almost every request
   succeeds and the occasional retry always finds a token; when the
   upstream starts failing, the refill dries up with it and the retry
   rate decays to the bucket instead of amplifying the failure — the
   circuit breakers then trip on the genuine error rate, not on a storm
   of our own making. *)

type bucket = { mutable tokens : float }

type t = {
  ratio : float; (* tokens added per observed success *)
  buckets : (string, bucket) Hashtbl.t; (* keyed by upstream *)
  metrics : Nk_telemetry.Metrics.t;
}

let cap = 8.0

module Meter = struct
  let exhausted = Nk_telemetry.Metrics.Counter.family "retry.budget_exhausted" ~label:"upstream"
end

let create ~ratio ~metrics () =
  if ratio <= 0.0 then invalid_arg "Retry_budget.create: ratio must be positive";
  { ratio; buckets = Hashtbl.create 8; metrics }

(* Buckets start full: a cold upstream gets the benefit of the doubt
   for its first few retries, then has to earn the rest. *)
let bucket_for t upstream =
  match Hashtbl.find_opt t.buckets upstream with
  | Some b -> b
  | None ->
    let b = { tokens = cap } in
    Hashtbl.add t.buckets upstream b;
    b

let success t ~upstream =
  let b = bucket_for t upstream in
  b.tokens <- Float.min cap (b.tokens +. t.ratio)

(* One retry costs one token. A refused retry is the feature working,
   not an error — but it is counted, because a high exhaustion rate is
   how an operator tells "bounded retries" from "no retries". *)
let try_retry t ~upstream =
  let b = bucket_for t upstream in
  if b.tokens >= 1.0 then begin
    b.tokens <- b.tokens -. 1.0;
    true
  end
  else begin
    Nk_telemetry.Metrics.Counter.incr_at t.metrics Meter.exhausted upstream;
    false
  end
