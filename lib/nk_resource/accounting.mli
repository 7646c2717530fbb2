(** Per-site resource accounting.

    Sites accumulate consumption in the current control interval; when
    the interval closes, UPDATE folds it into a weighted average of past
    and present consumption — the value "exposed to scripts, thus
    allowing scripts to adapt to system congestion and recover from past
    penalization" (§3.2). Renewable resources only fold in while the
    resource is congested. *)

type t

val create : unit -> t
(** The average weighs the newest interval 0.3. *)

val charge : t -> site:string -> Resource.t -> float -> unit
(** Add consumption for the current interval (seconds of CPU, bytes of
    memory/bandwidth, ...). *)

val usage : t -> site:string -> Resource.t -> float
(** The weighted average (the paper's [site.usage]). *)

val active_sites : t -> string list
(** Sites with any recorded activity, sorted. *)

val close_resource_interval : t -> Resource.t -> congested:bool -> unit
(** Same, for a single resource — CONTROL runs per tracked resource. *)
