(** Site quarantine with escalation and recovery.

    §3.2 promises that penalized sites can "recover from past
    penalization"; a permanent termination list breaks that contract.
    Instead, each offense bans the site for an escalating window —
    [base * 2^strikes], capped at [max_window] — and the strike count
    decays by one for every full [decay] period the site behaves after
    its ban expires. A site that misbehaved once is serving again after
    one base window and back to a clean slate shortly after; a site
    that re-offends every time it returns converges to the maximum
    ban.

    Time is injected. Every ban is counted in [metrics]
    (["quarantine.bans"], site-labeled) and the granted window sizes
    are recorded in the ["quarantine.window"] histogram. *)

type t

type config = {
  base : float;
      (** base ban window (s) a terminated site's requests are refused
          before it may run scripts again; doubles per repeat offense up
          to [max_window] *)
  max_window : float; (** cap on the escalating ban window *)
  decay : float;
      (** seconds of good behaviour that erase one strike; [<= 0.0]
          disables decay (strikes only ever grow) *)
  site_params : (string * float * float) list;
      (** ordered [(pattern, base, max)] per-site overrides lowered from
          a provisioning plan ([site "..." { quarantine base ... max
          ... }]); patterns resolve first-match via {!Shares.matches} *)
}

val default : config

val validate : config -> string list
(** A finding per value that is wrong under any interpretation; [[]] accepts. *)

val create :
  config -> clock:(unit -> float) -> metrics:Nk_telemetry.Metrics.t -> t

val punish : t -> site:string -> float
(** Record an offense; returns the ban window granted (seconds). *)

val is_banned : t -> site:string -> bool

val remaining : t -> site:string -> float
(** Seconds left on the site's ban; 0 when not banned. *)

val active : t -> (string * float) list
(** Currently banned sites with their absolute expiry times, sorted. *)
