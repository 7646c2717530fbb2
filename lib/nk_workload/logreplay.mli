(** Access-log replay: Apache Common Log Format to request schedules.

    The SIMM experiments "replay access logs for the SIMMs collected by
    NYU's medical school; log replay is accelerated 4x" (§5.2). This
    module parses CLF, converts entries into timed request events that
    a replay sends through {!Driver.send}, and can synthesize plausible
    logs for tests and benches. *)

type entry = {
  client : Nk_http.Ip.t;
  time : float; (** epoch seconds (timezone offsets are honored) *)
  meth : Nk_http.Method_.t;
  path : string; (** request target, may include a query *)
  status : int;
  bytes : int;
}

val parse_line : string -> (entry, string) result
(** One CLF line:
    [host ident user [day/Mon/year:hh:mm:ss +zzzz] "METHOD /path HTTP/1.x" status bytes]. *)

val parse_log : string -> entry list * int
(** All well-formed entries in order, plus the count of malformed
    lines. *)

val to_events :
  host:string -> accelerate:float -> entry list -> (float * Nk_http.Message.request) list
(** Timed events for an open-loop replay: offsets are relative to the
    first entry and divided by [accelerate] (the paper replays at 4x).
    Each request carries its log entry's client address. *)

val synthesize :
  rng:Nk_util.Prng.t ->
  start:float ->
  duration:float ->
  clients:int ->
  paths:string array ->
  string
(** A deterministic CLF log: each client requests a random path roughly
    every two seconds. *)
