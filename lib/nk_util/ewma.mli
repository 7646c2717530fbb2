(** Exponentially weighted moving average.

    The paper's resource manager exposes "the weighted average of past
    and present consumption" to scripts (§3.2); this is that average. *)

type t

val create : alpha:float -> t
(** [alpha] in (0,1]: weight of the newest observation. *)

val update : t -> float -> float
(** Feed an observation; returns the new average. *)

val value : t -> float
(** Current average (0 before any observation). *)
