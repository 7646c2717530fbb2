(** Sample statistics: mean, percentiles, CDFs, histograms.

    Used by the benchmark harness to report the paper's latency
    percentiles (Table 2, Figure 7) and throughput summaries. *)

type t
(** A mutable collection of float samples. *)

val create : unit -> t

val add : t -> float -> unit

val mean : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0,100\]]; nearest-rank on the sorted
    samples. 0 when empty. *)

val cdf : t -> points:int -> (float * float) list
(** [cdf t ~points] returns [(value, fraction <= value)] pairs at evenly
    spaced cumulative fractions, suitable for plotting Figure-7-style
    curves. *)

val fraction_at_least : t -> float -> float
(** Fraction of samples [>= threshold]; used for "fraction of accesses
    seeing at least 140 Kbps". *)
