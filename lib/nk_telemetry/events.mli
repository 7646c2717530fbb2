(** Structured telemetry events: point-in-time decisions worth auditing
    (resource-monitor throttles and terminations, integrity evictions),
    kept in a fixed-capacity ring buffer with attribute labels. *)

type event = { time : float; name : string; attrs : (string * string) list }

type t

val create : ?capacity:int -> ?clock:(unit -> float) -> unit -> t
(** [capacity] defaults to 1024 (oldest events are overwritten);
    [clock] defaults to a constant 0 — pass the simulated clock to get
    meaningful timestamps. *)

val record : t -> ?time:float -> ?attrs:(string * string) list -> string -> unit
(** [time] overrides the clock (used when copying events between
    stores). *)

val count : t -> int
(** Total events recorded (not capped by the ring capacity). *)

val to_list : t -> event list
(** Retained events, oldest first. *)

val event_to_string : event -> string
