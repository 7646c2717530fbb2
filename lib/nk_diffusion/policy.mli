(** The per-request offload decision.

    Proactive, not reactive: offloading starts once the local pressure
    crosses the {e low} water mark — well before admission control would
    start shedding — and only toward neighbors measurably less loaded
    than we are. The decision is deliberately cheap (a scan of at most
    [fanout] table entries) because it sits on the request hot path. *)

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
