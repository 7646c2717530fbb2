(** Deterministic discrete-event simulation core.

    All end-to-end experiments (§5) run on this clock: events are
    scheduled at absolute times and executed in order; ties break by
    scheduling order. The simulated clock stands in for both wall-clock
    latency and HTTP absolute expiration times.

    The event queue is one binary heap specialised to thunks: times,
    scheduling order (with daemon and timer flags in its low bits),
    thunks and timer handles sit in four parallel arrays, and running
    or cancelling an event drops the queue's reference to its thunk. A
    cancellable timer is a daemon entry of that heap whose handle
    tracks its slot. Beyond the thunk, a schedule and its step allocate
    six words (two boxed times passed to the sifts and the boxed
    clock); a timer adds its two-word handle. *)

type t

val epoch : float
(** 1,136,073,600: January 2006, the paper's era, in Unix seconds. The
    default clock origin, so HTTP dates look plausible; fault plans and
    scheduled workloads built before their cluster count from it. *)

val create : ?start_time:float -> unit -> t
(** [start_time] is the initial clock value in Unix seconds (defaults
    to {!epoch}). *)

val now : t -> float

val schedule : t -> ?daemon:bool -> delay:float -> (unit -> unit) -> unit
(** Run a thunk [delay] seconds from now (clamped to now for negative
    delays). A [daemon] event (periodic monitors, log posters) does not
    keep [run] alive: once only daemon events remain, [run] returns. *)

val schedule_at : t -> ?daemon:bool -> float -> (unit -> unit) -> unit

val every : t -> period:float -> (unit -> unit) -> unit
(** A daemon loop: run the thunk [period] seconds from now, then every
    [period] seconds after that, each run scheduling the next once it
    returns. *)

type timer
(** A handle on a queued {!timer}. *)

val timer : t -> delay:float -> (unit -> unit) -> timer
(** Schedule a daemon event, as [schedule ~daemon:true] does, that
    {!cancel} can take back: a timeout that races an answer. *)

val cancel : t -> timer -> unit
(** Take the timer out of the queue at once (O(log n)) and drop its
    thunk. Does nothing once it has fired or been cancelled. *)

val run : ?until:float -> t -> unit
(** Drain the event queue until only daemon events remain; with
    [until], stop once the clock would pass it (remaining events stay
    queued). *)

val step : t -> bool
(** Execute the earliest event; false when the queue is empty. *)

val pending : t -> int
(** Events and timers queued. *)

val executed : t -> int
(** Total events executed since creation (daemons included). Scale
    soaks assert on it to prove a run really exercised the claimed
    event volume. *)
