(** Scoped wall/CPU timers for hot paths.

    Unlike {!Tracer} spans (simulated time, per request), a profile
    accumulates *real* time per code region across many calls — the
    tool for "which part of the bench burned the CPU". *)

type t

val create : clock:(unit -> float) -> unit -> t
(** [clock] is typically [Sys.time] (process CPU seconds). *)

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk, charging its elapsed clock time to the named region
    (exception-safe). Nested and repeated regions accumulate. *)

val to_table : t -> string
(** One row per region (calls, total and max seconds), largest total
    first. *)
