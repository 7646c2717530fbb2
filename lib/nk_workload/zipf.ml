(* Zipf-distributed rank sampling in O(1) per draw via the Walker/Vose
   alias method. Planet-scale crowds are skewed: rank r is requested
   proportionally to r^-s, so a handful of URLs carry most of the
   traffic and become the hotspots the overlay must replicate.
   Construction is O(universe); sampling costs one uniform index, one
   uniform float and one comparison, so a 10^6-request crowd over a
   10^5-URL universe is cheap and, because every draw consumes exactly
   two PRNG outputs, bit-deterministic under a fixed seed. *)

type t = {
  universe : int;
  prob : float array; (* per-slot acceptance probability, in [0,1] *)
  alias : int array; (* slot to fall back to when the coin rejects *)
}

let create ~s ~universe =
  if universe <= 0 then invalid_arg "Zipf.create: universe must be positive";
  if s < 0. then invalid_arg "Zipf.create: skew must be non-negative";
  let n = universe in
  let weights = Array.init n (fun i -> (float_of_int (i + 1)) ** -.s) in
  let total = Array.fold_left ( +. ) 0. weights in
  let pmf = Array.map (fun w -> w /. total) weights in
  (* Vose's stable alias construction: scale each probability by n,
     split slots into under- and over-full, and repeatedly pair one of
     each so every slot ends up holding its own probability plus the
     overflow of exactly one alias. *)
  let scaled = Array.map (fun p -> p *. float_of_int n) pmf in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Queue.create () and large = Queue.create () in
  Array.iteri
    (fun i p -> if p < 1.0 then Queue.add i small else Queue.add i large)
    scaled;
  while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
    let s_i = Queue.pop small and l_i = Queue.pop large in
    prob.(s_i) <- scaled.(s_i);
    alias.(s_i) <- l_i;
    scaled.(l_i) <- scaled.(l_i) +. scaled.(s_i) -. 1.0;
    if scaled.(l_i) < 1.0 then Queue.add l_i small else Queue.add l_i large
  done;
  (* Leftovers are 1.0 up to rounding; both queues drain to prob = 1. *)
  Queue.iter (fun i -> prob.(i) <- 1.0) small;
  Queue.iter (fun i -> prob.(i) <- 1.0) large;
  { universe = n; prob; alias }

(* Alias-table internals exposed read-only so property tests can check
   the total-probability invariant without re-deriving the build. *)
let table t = (Array.copy t.prob, Array.copy t.alias)

let sample t rng =
  let i = Nk_util.Prng.int rng t.universe in
  let u = Nk_util.Prng.float rng 1.0 in
  if u < t.prob.(i) then i else t.alias.(i)
