type outcome =
  | Executed of { response : Nk_http.Message.response; fuel : int; heap : int }
  | Rejected of string

type request_envelope = {
  id : int;
  origin_node : string;
  origin_incarnation : int;
  target : string;
  target_incarnation : int;
  site : string;
  script_hash : string;
  request : Nk_http.Message.request;
}

type reply_envelope = {
  reply_id : int;
  responder : string;
  responder_incarnation : int;
  outcome : outcome;
}

let request_topic node = "nk.diffusion.req." ^ node

let reply_topic node = "nk.diffusion.rep." ^ node

(* --- envelope codec ---------------------------------------------------

   A block of [key=value] lines, a blank line, then the HTTP-encoded
   message (the same wire codec tests and trace tooling use). Values
   must be newline-free; reasons and names are. *)

let magic_request = "nk-offload-req/1"

let magic_reply = "nk-offload-rep/1"

let header_block fields =
  String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let encode_request_envelope e =
  let client = Nk_http.Ip.to_string e.request.Nk_http.Message.client.Nk_http.Ip.ip in
  magic_request ^ "\n"
  ^ header_block
      [
        ("id", string_of_int e.id);
        ("origin", e.origin_node);
        ("origin-inc", string_of_int e.origin_incarnation);
        ("target", e.target);
        ("target-inc", string_of_int e.target_incarnation);
        ("site", e.site);
        ("hash", e.script_hash);
        ("client", client);
      ]
  ^ "\n\n"
  ^ Nk_http.Codec.encode_request e.request

let encode_reply_envelope e =
  let fields =
    [
      ("id", string_of_int e.reply_id);
      ("responder", e.responder);
      ("responder-inc", string_of_int e.responder_incarnation);
    ]
    @
    match e.outcome with
    | Executed { fuel; heap; _ } ->
      [ ("outcome", "executed"); ("fuel", string_of_int fuel); ("heap", string_of_int heap) ]
    | Rejected reason -> [ ("outcome", "rejected"); ("reason", reason) ]
  in
  let body =
    match e.outcome with
    | Executed { response; _ } -> Nk_http.Codec.encode_response response
    | Rejected _ -> ""
  in
  magic_reply ^ "\n" ^ header_block fields ^ "\n\n" ^ body

let split_envelope payload =
  match Nk_util.Strutil.index_sub payload ~sub:"\n\n" ~start:0 with
  | None -> Error "missing envelope separator"
  | Some i ->
    Ok
      ( String.sub payload 0 i,
        String.sub payload (i + 2) (String.length payload - i - 2) )

let parse_fields head =
  match String.split_on_char '\n' head with
  | magic :: lines ->
    let rec go acc = function
      | [] -> Ok (magic, acc)
      | line :: rest -> (
        match Nk_util.Strutil.split_first '=' line with
        | Some (k, v) -> go ((k, v) :: acc) rest
        | None -> Error ("malformed envelope line: " ^ line))
    in
    go [] lines
  | [] -> Error "empty envelope"

let field fields k =
  match List.assoc_opt k fields with
  | Some v -> Ok v
  | None -> Error ("envelope missing field " ^ k)

let int_field fields k =
  Result.bind (field fields k) (fun v ->
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error ("envelope field " ^ k ^ " is not an integer"))

let ( let* ) = Result.bind

let decode_request_envelope payload =
  let* head, body = split_envelope payload in
  let* magic, fields = parse_fields head in
  if magic <> magic_request then Error ("bad envelope magic: " ^ magic)
  else
    let* id = int_field fields "id" in
    let* origin_node = field fields "origin" in
    let* origin_incarnation = int_field fields "origin-inc" in
    let* target = field fields "target" in
    let* target_incarnation = int_field fields "target-inc" in
    let* site = field fields "site" in
    let* script_hash = field fields "hash" in
    let* client = field fields "client" in
    let* request = Nk_http.Codec.decode_request body in
    (* The wire codec drops the client identity; restore it so client
       predicates (System.isLocal, client matching) behave identically
       on the executing node. *)
    (match Nk_http.Ip.of_string client with
     | Ok ip -> request.Nk_http.Message.client <- { Nk_http.Ip.ip; hostname = None }
     | Error _ -> ());
    Ok
      {
        id;
        origin_node;
        origin_incarnation;
        target;
        target_incarnation;
        site;
        script_hash;
        request;
      }

let decode_reply_envelope payload =
  let* head, body = split_envelope payload in
  let* magic, fields = parse_fields head in
  if magic <> magic_reply then Error ("bad envelope magic: " ^ magic)
  else
    let* reply_id = int_field fields "id" in
    let* responder = field fields "responder" in
    let* responder_incarnation = int_field fields "responder-inc" in
    let* kind = field fields "outcome" in
    let* outcome =
      match kind with
      | "executed" ->
        let* fuel = int_field fields "fuel" in
        let* heap = int_field fields "heap" in
        let* response = Nk_http.Codec.decode_response body in
        Ok (Executed { response; fuel; heap })
      | "rejected" ->
        let* reason = field fields "reason" in
        Ok (Rejected reason)
      | other -> Error ("unknown outcome kind: " ^ other)
    in
    Ok { reply_id; responder; responder_incarnation; outcome }

(* --- sender-side pending table ---------------------------------------- *)

type waiting = {
  w_target : string;
  w_target_incarnation : int;
  w_origin_incarnation : int;  (* our epoch when the offload left *)
  w_on_done : outcome option -> unit;
}

type t = {
  name : string;
  incarnation : unit -> int;
  schedule : float -> (unit -> unit) -> unit;
  publish : topic:string -> payload:string -> unit;
  metrics : Nk_telemetry.Metrics.t;
  waitings : (int, waiting) Hashtbl.t;
  mutable next_id : int;
}

let create ~name ~incarnation ~schedule ~publish ~metrics =
  {
    name;
    incarnation;
    schedule;
    publish;
    metrics;
    waitings = Hashtbl.create 8;
    next_id = 0;
  }

module Meter = struct
  let stale_replies = Nk_telemetry.Metrics.Counter.v "diffusion.stale_replies"
end

let count_stale t = Nk_telemetry.Metrics.Counter.incr t.metrics Meter.stale_replies

let send t ~target ~target_incarnation ~site ~script_hash ~timeout ~request ~on_done =
  let id = t.next_id in
  t.next_id <- id + 1;
  let envelope =
    {
      id;
      origin_node = t.name;
      origin_incarnation = t.incarnation ();
      target;
      target_incarnation;
      site;
      script_hash;
      request;
    }
  in
  Hashtbl.replace t.waitings id
    {
      w_target = target;
      w_target_incarnation = target_incarnation;
      w_origin_incarnation = envelope.origin_incarnation;
      w_on_done = on_done;
    };
  t.schedule timeout (fun () ->
      match Hashtbl.find_opt t.waitings id with
      | None -> () (* already resolved *)
      | Some w ->
        Hashtbl.remove t.waitings id;
        w.w_on_done None);
  t.publish ~topic:(request_topic target) ~payload:(encode_request_envelope envelope)

let handle_reply t ~payload =
  match decode_reply_envelope payload with
  | Error msg ->
    Logs.debug (fun m -> m "[%s] undecodable offload reply: %s" t.name msg);
    count_stale t
  | Ok reply -> (
    match Hashtbl.find_opt t.waitings reply.reply_id with
    | None -> count_stale t (* late (already timed out) or duplicate *)
    | Some w ->
      (* Three epoch guards: the responder must be the node we sent to,
         still in the incarnation we believed in, and we must not have
         crashed ourselves since sending (a restarted node must not be
         haunted by its dead incarnation's offloads). *)
      if
        reply.responder <> w.w_target
        || reply.responder_incarnation <> w.w_target_incarnation
        || t.incarnation () <> w.w_origin_incarnation
      then count_stale t
      else begin
        Hashtbl.remove t.waitings reply.reply_id;
        w.w_on_done (Some reply.outcome)
      end)

let reply t ~to_ outcome =
  let envelope =
    {
      reply_id = to_.id;
      responder = t.name;
      responder_incarnation = t.incarnation ();
      outcome;
    }
  in
  t.publish ~topic:(reply_topic to_.origin_node) ~payload:(encode_reply_envelope envelope)
