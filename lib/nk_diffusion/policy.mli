(** The per-request offload decision.

    Proactive, not reactive: offloading starts once the local pressure
    crosses the {e low} water mark — well before admission control would
    start shedding — and only toward neighbors measurably less loaded
    than we are. The decision is deliberately cheap (a scan of at most
    [fanout] table entries) because it sits on the request hot path. *)

type config = {
  low_water : float;
      (** pressure below which a node never offloads (the proactive
          threshold; the signal crosses 0.5 at the admission delay
          target) *)
  high_water : float; (** pressure at or above which a node refuses incoming offloads *)
  fanout : int; (** max lower-pressure neighbors considered per offload decision *)
  offload_timeout : float;
      (** seconds to wait for an offload reply before falling back to
          local execution *)
  fetch_timeout : float;
      (** receiver's bound on fetching a script from the origin after a
          compile-cache hash miss *)
  staleness : float;
      (** neighbor pressure reports older than this are ignored; also
          the redirector's load-report staleness bound *)
}

val default : config

val validate : config -> string list
(** A finding per value that is wrong under any interpretation; [[]] accepts. *)

type decision =
  | Local  (** execute the pipeline here *)
  | Offload of Neighbors.info list
      (** candidates worth shipping the stage to, pressure ascending *)

val decide :
  pressure:float -> low_water:float -> candidates:Neighbors.info list -> decision
(** [Local] when [pressure < low_water] (no congestion brewing) or no
    candidate sits at least 0.05 below [pressure] (the hysteresis that
    keeps two equally loaded nodes from ping-ponging work). *)

val pick : rng:Nk_util.Prng.t -> Neighbors.info list -> Neighbors.info option
(** Weighted choice among candidates by headroom [(1 - pressure)], so
    the idlest neighbor absorbs proportionally more work but the rest of
    the close set still shares the diffusion (which is what spreads a
    flash crowd's execution instead of re-concentrating it). *)
