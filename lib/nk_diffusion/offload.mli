(** The computation-migration protocol (C3PO diffusion over the bus).

    What travels is the {e name} of the work, never the work's code: an
    offload request carries the SHA-256 hash of the site's pipeline
    script plus the serialized request context, and the receiving node
    resolves the hash against its own compiled-program cache — fetching
    the script from the origin only on a hash miss. The reply carries
    the serialized response plus the fuel/heap the pipeline consumed,
    so an offloaded execution is accountable (and testable) exactly
    like a local one.

    Transport and timers are injected: messages ride the
    deployment's reliable message bus via [publish], each node
    subscribing to its own request and reply topics, and timeouts ride
    the simulator's daemon scheduler. This module owns the envelope
    codec and the sender-side pending table; executing the pipeline is
    the node's business.

    Crash safety is incarnation-guarded end to end, mirroring PR 4/5's
    load reports: the sender stamps the target incarnation it believes
    in (a receiver that crashed since rejects, because its queues and
    promises died with it), the receiver stamps its own incarnation on
    the reply, and a reply from a different epoch than the sender
    recorded — or arriving after the sender's own crash epoch advanced,
    or after the timeout already fell back — is discarded
    and counted (["diffusion.stale_replies"] in [metrics]). Combined
    with the caller falling back to local execution on timeout or
    rejection, diffusion can never lose a request. *)

type outcome =
  | Executed of { response : Nk_http.Message.response; fuel : int; heap : int }
  | Rejected of string  (** machine-readable reason, no newlines *)

type request_envelope = {
  id : int;
  origin_node : string;
  origin_incarnation : int;
  target : string;
  target_incarnation : int;
  site : string;
  script_hash : string;
      (** SHA-256 (hex) of the site script's source; [""] when the site
          publishes no script (the pipeline is walls-only) *)
  request : Nk_http.Message.request;
}

type reply_envelope = {
  reply_id : int;
  responder : string;
  responder_incarnation : int;
  outcome : outcome;
}

val request_topic : string -> string
(** The bus topic a node receives offload requests on
    (["nk.diffusion.req.<node>"]). *)

val reply_topic : string -> string

(** {1 Envelope codec} *)

val encode_request_envelope : request_envelope -> string

val decode_request_envelope : string -> (request_envelope, string) result

val decode_reply_envelope : string -> (reply_envelope, string) result

(** {1 Sender side} *)

type t

val create :
  name:string ->
  incarnation:(unit -> int) ->
  schedule:(float -> (unit -> unit) -> unit) ->
  publish:(topic:string -> payload:string -> unit) ->
  metrics:Nk_telemetry.Metrics.t ->
  t
(** [schedule delay k] must run [k] after [delay] seconds, and must do
    so even when the rest of the system has gone quiet: the timeout is
    the fallback guarantee for an in-flight request, so in a simulation
    it needs a regular (non-daemon) timer. *)

val send :
  t ->
  target:string ->
  target_incarnation:int ->
  site:string ->
  script_hash:string ->
  timeout:float ->
  request:Nk_http.Message.request ->
  on_done:(outcome option -> unit) ->
  unit
(** Publish one offload request and register [on_done], which fires
    exactly once: with the outcome if a valid reply arrives within
    [timeout], with [None] on timeout. Late, duplicate, and
    wrong-incarnation replies are discarded. *)

val handle_reply : t -> payload:string -> unit
(** Feed a payload received on our reply topic through the pending
    table. *)

val reply : t -> to_:request_envelope -> outcome -> unit
(** Receiver side: publish the outcome back to the requester's reply
    topic, stamped with our current incarnation. *)
