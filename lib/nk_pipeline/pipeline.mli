(** EXECUTE-PIPELINE (Fig. 4).

    The forward list starts as client wall, site script, server wall;
    each popped stage selects its closest-match policy, runs
    [onRequest], and may prepend dynamically scheduled stages
    ([nextStages]) or produce a response (reversing direction). If the
    forward pass completes without a response, the original resource is
    fetched; then the backward stack runs the matched [onResponse]
    handlers in reverse order. *)

type failure =
  | Script_failure of string (** runtime error in a handler *)
  | Resources of string (** fuel/heap sandbox limit *)
  | Killed (** pipeline terminated by the resource monitor *)

type source =
  | From_script of string (** a stage's onRequest produced the response *)
  | From_origin (** the content handler fetched it *)
  | From_failure of failure

type outcome = {
  response : Nk_http.Message.response;
  source : source;
  stages_matched : int; (** stages whose predicate selection found a policy *)
  handlers_run : int; (** event handlers actually invoked *)
  fuel : int; (** interpreter fuel consumed by this pipeline *)
  heap : int; (** script heap bytes allocated by this pipeline *)
}

val well_known_client_wall : string
(** "http://nakika.net/clientwall.js" *)

val well_known_server_wall : string

val site_script_url : string -> string
(** Where a site publishes its script: ["http://<site>/nakika.js"]. *)

val execute :
  load_stage:(string -> Stage.t option) ->
  fetch:(Nk_http.Message.request -> Nk_http.Message.response) ->
  ?telemetry:Nk_telemetry.Tracer.t * Nk_telemetry.Tracer.span ->
  Nk_http.Message.request ->
  outcome
(** [load_stage] returns [None] for sites that publish no script (the
    stage is skipped); [fetch] is the content handler (proxy cache +
    origin). At most 64 stages run, so a misbehaving script cannot
    loop the scheduler forever.

    With [telemetry = (tracer, request_span)], the pipeline records
    child spans under the request: ["policy-match"] per stage
    selection, and per handler invocation a ["stage"] span with an
    ["interp"] child whose attributes carry the fuel and heap the
    script consumed. *)

val run_handler :
  Stage.t ->
  this_request:Nk_http.Message.request ->
  response:Nk_http.Message.response option ->
  Nk_script.Value.t ->
  (Nk_http.Message.response option, failure) result
(** Run one event handler in the stage's context with the message
    globals installed; exposed for tests and the extension examples. *)
