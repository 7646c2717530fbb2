(** The NKScript runtime and its sandbox.

    Each scripting context is fully isolated: it owns its globals and is
    subject to a fuel (CPU) and heap limit, mirroring the per-pipeline
    sandboxing of §3.2/§4. The resource monitor reads [fuel_used] /
    [heap_used] for congestion accounting and calls [kill] to terminate
    a pipeline mid-execution.

    Scripts execute through {!Compile}, the only engine; this module is
    the runtime its closures call. The reference semantics the engine is
    tested against is the tree-walking evaluator in
    [test/reference_interp.ml]. *)

type ctx = Value.ctx
(** The concrete record lives in {!Value} so that compiled closures
    ({!Value.compiled_fn}, produced by {!Compile}) can reference the
    context without a dependency cycle. Treat it as abstract: use the
    accessors below. *)

exception Resource_exhausted of string
(** Fuel or heap limit exceeded. *)

exception Terminated
(** The context was killed by the resource monitor. *)

val create : ?max_fuel:int -> ?max_heap_bytes:int -> unit -> ctx
(** Defaults: 5,000,000 fuel units and 64 MiB of script heap. *)

val define_global : ctx -> string -> Value.t -> unit

val get_global : ctx -> string -> Value.t option

val apply : ctx -> Value.t -> Value.t list -> Value.t
(** Call a function value (event handlers are invoked this way),
    charging the 4-unit invocation fuel first. *)

val consume_fuel : ctx -> int -> unit
(** Charge additional fuel from native (vocabulary) code, so
    data-proportional platform work — XML transforms, image scaling —
    counts against the sandbox and the CPU model like interpreted work
    does. Raises [Resource_exhausted] / [Terminated] like any
    evaluation step. *)

val fuel_used : ctx -> int
val heap_used : ctx -> int

val reset_usage : ctx -> unit
(** Zero the fuel/heap counters (called between requests when a context
    is reused from the pool). When a usage observer is installed, it is
    invoked with the outgoing non-zero counters first. *)

val set_usage_observer : ctx -> (fuel:int -> heap:int -> unit) -> unit
(** Publish per-pipeline fuel/heap consumption to telemetry: the
    observer fires on every {!reset_usage} that discards non-zero
    usage. *)

val kill : ctx -> unit
(** Make the next evaluation step raise [Terminated]. *)

val revive : ctx -> unit

(** {1 Runtime surface of compiled code}

    The value-level operations {!Compile}'s closures call, so every
    path through them charges fuel and heap at one place. Not intended
    for general use. *)

exception Return_exc of Value.t
(** Non-local control flow of compiled code: [return] / [break] /
    [continue] / [throw] unwind through these. *)

exception Break_exc

exception Continue_exc

exception Throw_exc of Value.t

val charge_fuel : ctx -> int -> unit
(** [consume_fuel] without the non-negativity clamp: one unit per AST
    node visited. *)

val charge_alloc : ctx -> Value.t -> unit
(** Charge [Value.alloc_size v] against the heap limit: add, then raise
    [Resource_exhausted] if the total is over the cap. The native
    string builders ([repeat], [replace], [join]) charge the same
    amount before they build their result. *)

val text : ctx -> Value.t -> string
(** [Value.to_string] as [String(...)] sees it: each array nested in
    an array is charged as a string before it is built, so the heap
    limit bounds text that grows per nesting level; an array inside
    its own text prints as [""]. The result itself is the caller's to
    charge. *)

val concat_text : ctx -> Value.t -> Value.t -> string
(** [text a ^ text b], the result of a string [+]: both operands' texts
    are sized and the result charged as a string ([charge_alloc]'s
    amount) before it is built, so the heap limit stops it first. *)

val member_get : ctx -> Value.t -> string -> Value.t

val index_get : ctx -> Value.t -> Value.t -> Value.t
(** An integral index no array can hold (negative, or at least
    [Sys.max_array_length]) reads [undefined]. *)

val index_set : ctx -> Value.t -> Value.t -> Value.t -> unit
(** An array index no array can hold raises the ["bad array index"]
    [Script_error]. A write past the end charges 8 heap bytes per hole
    it opens before the array grows. *)

val invoke_method : ctx -> Value.t -> string -> Value.t list -> Value.t
(** Method-call dispatch: [o.m(args)] on objects, strings, byte arrays
    and arrays, with [this] bound for script functions. *)

val construct : ctx -> Value.t -> Value.t list -> Value.t
(** The [new] protocol. *)
