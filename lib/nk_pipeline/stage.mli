(** A scripting-pipeline stage: the unit of composition (§3.1).

    A stage is produced by fetching and evaluating a script; evaluation
    registers policy objects, from which the matcher's decision tree is
    built (§4). The stage keeps the scripting context its handlers
    close over; nodes cache stages keyed by script URL until the
    script's HTTP expiration. *)

type t

val url : t -> string

val context : t -> Nk_script.Interp.ctx

val policies : t -> Nk_policy.Policy.t list

val digest : t -> string
(** SHA-256 of the script body the stage was built from — the name an
    offload envelope ships instead of the body. *)

val of_script :
  url:string ->
  host:Nk_vocab.Hostcall.t ->
  ?max_fuel:int ->
  ?max_heap_bytes:int ->
  ?seed:int ->
  ?on_compile_cache:([ `Hit | `Miss ] -> unit) ->
  ?lint:[ `Off | `Permissive | `Strict ] ->
  ?on_lint:(Nk_analysis.Analysis.report -> unit) ->
  source:string ->
  unit ->
  (t, string) result
(** The one admission path for a script body. Looks the body up in
    {!Nk_script.Compile}'s script cache ([on_compile_cache] reports
    whether it was already there), lints it, then builds the stage as
    {!of_program} does. Returns [Error] on a parse or runtime failure
    (such a script publishes no policies).

    The lint is the static analyzer run over the cached AST; a body
    that does not parse gets a one-diagnostic [parse-error] report. The
    report is handed to [on_lint] before any script code runs. Under
    [~lint:`Strict] a report with error-severity diagnostics makes
    [of_script] return [Error] without executing the script — the one
    lint rejection, naming the error count and the first error as
    {!Nk_analysis.Diagnostic.to_string} prints it; the default
    [`Permissive] only reports; [`Off] skips analysis. *)

val of_program :
  url:string ->
  host:Nk_vocab.Hostcall.t ->
  ?max_fuel:int ->
  ?max_heap_bytes:int ->
  ?seed:int ->
  Nk_script.Compile.script ->
  (t, string) result
(** Build a fresh context, install the platform vocabularies and the
    [Policy] constructor, run the program, and compile the decision
    tree from the policies it registered. This is the diffusion
    receiver's path, where the script was resolved by digest and the
    source is not at hand; it skips lint, which the node that first
    admitted the body ran. *)

val select : t -> Nk_http.Message.request -> Nk_policy.Policy.t option
(** Closest-match policy for the request via the decision tree. *)

val acquire : t -> unit
(** Take the stage's handler lock, suspending the calling cothread
    while another pipeline is executing inside this stage's context.
    Uncontended acquisition never suspends (callable outside a
    cothread). *)

val release : t -> unit
(** Hand the lock to the next waiting pipeline, if any. *)
