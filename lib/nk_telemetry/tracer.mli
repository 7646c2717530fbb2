(** Causal request tracing on the simulated clock.

    A request acquires a trace id at node admission ({!start_trace});
    the work it causes — cache lookup, policy match, pipeline stages,
    script interpretation, DHT hops, origin fetch, revalidation,
    integrity verification — runs under child spans. Completed traces
    are retained, the 256 most recent of them, and {!slowest} answers
    "where did this request's time go?" for the worst offenders.

    A span record lives only while its trace is open. When the root
    closes, the trace is copied once into flat arrays (ids, times,
    names, attributes) that the tracer reuses in place, and {!traces},
    {!slowest} rebuild records from that copy. So a span finished or
    annotated after its root closed is not reflected in the retained
    trace: it stays open, without the late attributes. The node never
    does this; each of its spans closes inside the phase that opened
    it. *)

type span = {
  span_id : int;
  trace_id : int;
  parent_id : int option;
  name : string;
  started : float;
  mutable ended : float option;
  mutable attrs : (string * string) list;
      (** newest first while the span is live, oldest first in a
          retained trace's records *)
}

type trace = {
  id : int;
  root : span;
  spans : span list;  (** every span of the trace (root included), in start order *)
}

type t

val create : clock:(unit -> float) -> unit -> t
(** The tracer retains the 256 most recent completed traces. Its stores
    start empty, so a tracer that completes no trace holds none, and
    its table of open traces is made by the first span it opens; a store
    doubles only when the retained traces would not fit in it, and
    otherwise a new trace overwrites the oldest one's slots. [clock] is
    typically [fun () -> Nk_sim.Sim.now sim]. *)

val start_trace : t -> ?attrs:(string * string) list -> string -> span
(** Open a new trace; the returned span is its root. *)

val start_span : t -> parent:span -> ?attrs:(string * string) list -> string -> span

val finish : t -> span -> unit
(** Close a span (idempotent). Closing a root span completes its trace
    and copies it into the retained traces. *)

val top : span
(** The parent of every trace root: a {!child} of [top] opens a new
    trace. It is never recorded, finished or rendered. *)

val child :
  t -> span option -> ?attrs:(string * string) list -> string -> (span option -> 'a) -> 'a
(** [child t parent name f] runs [f] under a fresh child span of
    [parent], finished even on exceptions. With [parent = None]
    (tracing off, or no request context) it is [f None]. *)

val set_attr_opt : span option -> string -> string -> unit
(** Append an attribute to [Some] span; nothing on [None]. *)

val completed : t -> int
(** Total traces completed so far (not capped by the ring capacity). *)

val traces : t -> trace list
(** The retained traces, oldest first. *)

val slowest : t -> int -> trace list
(** The [n] retained traces with the longest root durations,
    slowest first. *)

val render : trace -> string
(** An indented span tree with durations (ms) and attributes, for the
    [nakika trace] subcommand. *)
