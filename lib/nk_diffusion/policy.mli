(** The per-request offload decision.

    Proactive, not reactive: offloading starts once the local pressure
    crosses the {e low} water mark — well before admission control would
    start shedding — and only toward neighbors measurably less loaded
    than we are. It sits on the request hot path of a pressured node:
    {!candidates} walks the report table once, and the decision scans
    at most [fanout] of them. *)

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
      (** load reports older than this name no offload candidate; also
          the redirector's load-report staleness bound *)
}

val default : config

val validate : config -> string list
(** A finding per value that is wrong under any interpretation; [[]] accepts. *)

type candidate = {
  name : string;  (** the neighbor's host name *)
  incarnation : int;  (** liveness epoch of its report; bumped on restart *)
  pressure : float;  (** its last reported pressure ({!Pressure.compute}) *)
  distance : float;  (** estimated transfer time of a probe from the decider *)
}

val candidates :
  Nk_overlay.Redirector.t ->
  self:Nk_sim.Net.host ->
  now:float ->
  staleness:float ->
  fanout:int ->
  candidate list
(** Offload candidates for the node on [self], read from the cluster's
    one report table (the redirector's). A candidate is another node
    whose report carries a pressure (it runs diffusion) and is no older
    than [staleness] at [now]; the redirector keeps only its newest
    incarnation's report. The candidates are restricted to the close
    set ({!Nk_overlay.Redirector.close_bound} of the nearest), sorted by
    pressure ascending, then name, and truncated to [fanout]. *)

type decision =
  | Local  (** execute the pipeline here *)
  | Offload of candidate list
      (** candidates worth shipping the stage to, pressure ascending *)

val decide : pressure:float -> low_water:float -> candidates:candidate list -> decision
(** [Local] when [pressure < low_water] (no congestion brewing) or no
    candidate sits at least 0.05 below [pressure] (the hysteresis that
    keeps two equally loaded nodes from ping-ponging work). *)

val pick : rng:Nk_util.Prng.t -> candidate list -> candidate option
(** Weighted choice among candidates by headroom [(1 - pressure)], so
    the idlest neighbor absorbs proportionally more work but the rest of
    the close set still shares the diffusion (which is what spreads a
    flash crowd's execution instead of re-concentrating it). *)
