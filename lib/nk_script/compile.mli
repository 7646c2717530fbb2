(** Closure compilation of NKScript, and the process-wide script cache.

    Lowers a parsed program once into OCaml closures with variables
    resolved to lexical slot addresses (frame arrays indexed at compile
    time; the globals table is consulted only for true globals).

    The cache is the only place a script body is hashed and parsed:
    keyed by SHA-256 of the body, each entry holds that digest, the
    parsed program and the compiled program, so each distinct script
    (client wall, site script, server wall) is parsed and compiled once
    per process no matter how many stages or nodes load it, and the
    static analyzer and offload envelopes reuse the AST and the digest
    instead of recomputing them.

    Semantics, error messages, and — critically — fuel and heap
    accounting are identical to the reference tree-walker in
    [test/reference_interp.ml]: compiled closures charge fuel and heap
    at the points it does, so resource-monitor congestion numbers and
    termination points are bit-for-bit preserved. The differential test
    suite ([test_compile.ml]) enforces this over random programs. This
    is the only engine the library ships; {!Interp} is its runtime. *)

type program
(** A compiled program. Context-independent: the same value may be
    executed in any number of scripting contexts (this is what the
    cache shares across stages). *)

val compile : Ast.program -> program

val run : Interp.ctx -> program -> Value.t
(** Execute a compiled program: returns the value of the final
    toplevel expression statement ([Vundefined] when none), raises
    [Value.Script_error] for runtime errors and
    [Interp.Resource_exhausted] / [Interp.Terminated] from the sandbox,
    exactly as the reference tree-walker would. *)

type script = {
  digest : string;  (** raw 32-byte SHA-256 of the body *)
  ast : Ast.program;
  program : program;
}
(** A cached script body: its name, its AST (what the static analyzer
    reads) and its compiled program. *)

val lookup : ?on_cache:([ `Hit | `Miss ] -> unit) -> string -> script
(** Fetch from (or parse and compile into) the process-wide cache,
    keyed by SHA-256 of the source. [on_cache] fires before any parse
    work, so a [`Miss] that then fails to parse is still reported (the
    caller negative-caches failing sources). Raises
    [Parser.Parse_error] / [Lexer.Lex_error] on a miss for invalid
    sources; failures are not cached. This is the only way a program
    enters the cache, so every entry is the parse of a body whose
    SHA-256 is its key. *)

val run_string : Interp.ctx -> string -> Value.t
(** [run] ∘ [lookup]: the entry point for [evalScript], NKP and the
    CLI. *)

type cache_stats = { hits : int; misses : int; entries : int; evictions : int }

val cache_stats : unit -> cache_stats

val cache_clear : unit -> unit
(** Drop all cached programs (tests/benchmarks). Counters are not
    reset. The cache holds at most 1024 programs; on overflow the
    least-recently-used entry is evicted — counted in
    [cache_stats.evictions] — so a flood of distinct script bodies
    (e.g. diffusion hash-miss traffic) cannot grow the table without
    bound or flush the hot wall scripts. *)

val find_cached_by_hash : string -> script option
(** Resolve an already-known SHA-256 digest (a {!script}'s [digest])
    against the cache without having the source — the diffusion
    receiver's lookup when an offload envelope names a program by
    hash. Counts as an LRU touch but not as a hit/miss (the caller
    accounts hash misses itself). [None] when the digest is not
    cached: this process never saw the body, or the LRU dropped it. *)
