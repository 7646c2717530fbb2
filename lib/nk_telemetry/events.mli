(** Structured telemetry events: point-in-time decisions worth auditing
    (resource-monitor throttles and terminations, integrity evictions),
    kept in a bounded ring buffer with attribute labels. *)

type event = { time : float; name : string; attrs : (string * string) list }

type t

val create : clock:(unit -> float) -> t
(** The ring keeps the 1024 most recent events; it starts empty and
    grows as events arrive. *)

val record : t -> attrs:(string * string) list -> string -> unit
(** Stamped with the store's clock. *)

val to_list : t -> event list
(** Retained events, oldest first. *)

val event_to_string : event -> string
