(** The metrics registry: labeled counters, gauges and log-bucketed
    histograms, with exporters.

    Every metric is declared once, as a typed handle, in the module that
    owns its event: {!Counter.v}, {!Gauge.v} and {!Hist.v} for plain
    series, {!Counter.family} and {!Hist.family} for the per-site,
    per-upstream, per-reason, per-[at] and per-target series. A
    declaration gives the name a dense id in a process-wide catalogue,
    and one registry per node (or per experiment) keeps its values in
    arrays indexed by those ids, so recording is an array write, not a
    hash of a (name, labels) key. A family's series live in a table made
    on the family's first write and keyed by the label values.

    The by-name calls ({!incr}, {!observe}, {!set_gauge} and the
    readers) look the name up in the same catalogue and declare it on
    first write. Exports list only the instruments a registry has
    written, sorted by name then labels. Histograms are logarithmic-
    bucket sketches: cheap to record into, mergeable across nodes, and
    their quantile estimates are within one bucket's relative error
    (a factor of 2{^1/4} ≈ 1.19) of the exact sample percentiles. *)

type t

type labels = (string * string) list
(** Label pairs; order does not matter (they are normalized). *)

val create : unit -> t

(** {1 Counters} *)

val incr : t -> ?labels:labels -> ?by:int -> string -> unit

val counter : t -> ?labels:labels -> string -> int
(** 0 when never incremented. *)

val counter_total : t -> string -> int
(** Sum over every label set of the named counter. *)

(** {1 Gauges} *)

val set_gauge : t -> ?labels:labels -> string -> float -> unit

val gauge : t -> string -> float
(** The unlabeled gauge [name]; 0 when never set. *)

(** {1 Histograms} *)

module Histogram : sig
  type h

  val create : unit -> h

  val observe : h -> float -> unit
  (** Samples [<= 0] land in a dedicated underflow bucket; a
      non-finite sample counts in the highest bucket. *)

  val count : h -> int

  val sum : h -> float

  val min_value : h -> float

  val max_value : h -> float

  val quantile : h -> float -> float
  (** [quantile h p] with [p] in [\[0,100\]]: nearest-rank over the
      buckets (same rank convention as {!Nk_util.Stats.percentile});
      returns the containing bucket's upper bound clamped to the
      observed maximum, so the estimate is an upper bound within one
      bucket of the exact percentile. 0 when empty. *)

end

val observe : t -> ?labels:labels -> string -> float -> unit
(** By name; the name is declared on first use, as for {!incr} and
    {!set_gauge}. *)

val histogram : t -> ?labels:labels -> string -> Histogram.h option

(** {1 Declared handles} *)

type registry = t

module Counter : sig
  type t

  type 'v family
  (** A labelled family whose series are addressed by ['v], the label
      values. *)

  val v : string -> t
  (** Declare the counter [name]; declaring a name again returns the
      same handle. *)

  val incr : ?by:int -> registry -> t -> unit

  val get : registry -> t -> int
  (** 0 when never incremented. *)

  val family : string -> label:string -> string family

  val family2 : string -> labels:string * string -> (string * string) family
  (** Two label keys, in sorted order: the values are passed in the
      same order. *)

  val incr_at : ?by:int -> registry -> 'v family -> 'v -> unit
end

module Gauge : sig
  type t

  val v : string -> t

  val set : registry -> t -> float -> unit
end

module Hist : sig
  type t

  type 'v family

  val v : string -> t

  val observe : registry -> t -> float -> unit

  val family : string -> label:string -> string family

  val observe_at : registry -> 'v family -> 'v -> float -> unit

  val find_at : registry -> 'v family -> 'v -> Histogram.h option
  (** The series' histogram, if it was ever written. *)
end

(** {1 Registry-level operations} *)

val merge : into:t -> t -> unit
(** Fold a registry (e.g. another node's) into [into]: counters and
    histogram buckets add; gauges take the source's latest value. *)

val counters : t -> (string * labels * int) list
val histograms : t -> (string * labels * Histogram.h) list
(** All instruments, sorted by name then labels. *)

(** {1 Exporters} *)

val to_table : t -> string
(** Human-readable aligned table (counters, gauges, then histograms
    with count/mean/p50/p90/p99/max). *)

val to_json_lines : t -> string
(** One JSON object per instrument per line, each with a ["type"] field
    — the format the bench harness appends to BENCH_<id>.json. *)

val to_prometheus : t -> string
(** Prometheus text exposition format (counters, gauges, and histograms
    with cumulative [le] buckets, [_sum] and [_count]). *)

val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal (exposed for
    the exporters' callers: event dumps, bench files). *)
