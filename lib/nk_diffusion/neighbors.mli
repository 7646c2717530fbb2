(** The per-node neighbor pressure table.

    Each node keeps its own view of the close set's pressure, refreshed
    from the same periodic load-report gossip that feeds the DNS
    redirector (PR 5). Entries are incarnation-guarded — a report gossiped
    before a neighbor crashed must never shadow the restarted node's
    fresh view — and age-bounded: a neighbor that has gone silent (its
    reports stopped, whatever its last one claimed) drops out of the
    candidate set once its entry is older than the staleness bound, so
    diffusion never ships work to a node that may no longer exist. *)

type info = {
  name : string;  (** the neighbor's host name *)
  pressure : float;  (** its last reported pressure ({!Pressure.compute}) *)
  incarnation : int;  (** liveness epoch of the report; bumped on restart *)
  distance : float;  (** network proximity estimate (seconds for a probe) *)
  reported_at : float;  (** when the report was observed (simulated time) *)
}

type t

val create : unit -> t

val observe :
  t ->
  name:string ->
  incarnation:int ->
  pressure:float ->
  distance:float ->
  now:float ->
  unit
(** Record a load report. Reports carrying an incarnation lower than the
    stored one are from a pre-crash epoch and are ignored. *)

val candidates : t -> now:float -> staleness:float -> fanout:int -> info list
(** Offload candidates: entries no older than [staleness], restricted to
    the {e close set} (distance within 2x the nearest candidate, the same
    "close-by" rule the redirector applies to clients), sorted by
    pressure ascending and truncated to [fanout]. *)
