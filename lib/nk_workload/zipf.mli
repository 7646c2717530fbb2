(** Zipf-distributed request popularity with O(1) sampling.

    Planet-scale web demand is skewed: the r-th most popular URL draws
    traffic proportional to [r^-s] (s around 0.7-1.0 in trace studies,
    and the KoordeDHT cache-workload exemplar defaults to 0.9). The
    sampler precomputes a Walker/Vose alias table, so each draw costs
    two PRNG outputs and one comparison — fast enough for 10^6-request
    crowds and bit-deterministic under a fixed seed. *)

type t

val create : s:float -> universe:int -> t
(** [create ~s ~universe] builds the alias table for ranks
    [0 .. universe-1] with skew [s] (0 = uniform). O(universe) time
    and space. Raises [Invalid_argument] when [universe <= 0] or
    [s < 0]. *)

val sample : t -> Nk_util.Prng.t -> int
(** A rank in [0 .. universe-1]; rank [r] appears with probability
    proportional to [(r+1)^-s]. Consumes exactly two PRNG outputs per
    draw, so streams are reproducible from the seed. *)

val table : t -> float array * int array
(** Copies of the alias table's (acceptance probabilities, alias
    indices) — exposed so property tests can check the construction
    against the exact pmf: the implied per-rank mass matches
    [(r+1)^-s] normalized. *)
