type failure = Script_failure of string | Resources of string | Killed

type source = From_script of string | From_origin | From_failure of failure

type outcome = {
  response : Nk_http.Message.response;
  source : source;
  stages_matched : int;
  handlers_run : int;
  fuel : int;
  heap : int;
}

let well_known_client_wall = "http://nakika.net/clientwall.js"

let well_known_server_wall = "http://nakika.net/serverwall.js"

let site_script_url site = Printf.sprintf "http://%s/nakika.js" site

let default_stages (req : Nk_http.Message.request) =
  let site = Nk_http.Url.site req.Nk_http.Message.url in
  [ well_known_client_wall; site_script_url site; well_known_server_wall ]

(* A handler may also *return* a response object instead of calling
   Request.respond — "the onRequest event handler ... returns either a
   request for continued processing or a response" (§3.1). *)
let value_to_response v =
  match v with
  | Nk_script.Value.Vobj o -> (
    match Nk_script.Value.obj_get o "status" with
    | Nk_script.Value.Vnum status ->
      let content_type =
        match Nk_script.Value.obj_get o "contentType" with
        | Nk_script.Value.Vstr ct -> ct
        | _ -> "text/html"
      in
      let body =
        match Nk_script.Value.obj_get o "body" with
        | Nk_script.Value.Vbytes b -> Nk_script.Value.bytes_to_string b
        | Nk_script.Value.Vundefined -> ""
        | v -> Nk_script.Value.to_string v
      in
      (* A [headers] sub-object carries arbitrary response headers;
         [contentType] stays authoritative for Content-Type. *)
      let extra_headers =
        match Nk_script.Value.obj_get o "headers" with
        | Nk_script.Value.Vobj h ->
          List.filter_map
            (fun name ->
              if String.lowercase_ascii name = "content-type" then None
              else
                match Nk_script.Value.obj_get h name with
                | Nk_script.Value.Vundefined | Nk_script.Value.Vnull -> None
                | v -> Some (name, Nk_script.Value.to_string v))
            (Nk_script.Value.obj_keys h)
        | _ -> []
      in
      Some
        (Nk_http.Message.response ~status:(int_of_float status)
           ~headers:(("Content-Type", content_type) :: extra_headers)
           ~body ())
    | _ -> None)
  | _ -> None

let run_handler stage ~this_request ~response handler =
  (* One pipeline at a time inside a stage's context: the Request and
     Response globals are per-request state, and a handler may suspend
     mid-execution on a sub-fetch. *)
  Stage.acquire stage;
  let result =
    let ctx = Stage.context stage in
    Nk_vocab.Http_v.install_request ctx this_request;
    let sink = Option.map (Nk_vocab.Http_v.install_response ctx) response in
    match Nk_script.Interp.apply ctx handler [] with
    | result ->
      (match (sink, response) with
       | Some sink, Some resp -> Nk_vocab.Http_v.apply_writes sink resp
       | _ -> ());
      Ok (value_to_response result)
    | exception Nk_vocab.Http_v.Terminate_request resp -> Ok (Some resp)
    | exception Nk_script.Value.Script_error msg -> Error (Script_failure msg)
    | exception Nk_script.Interp.Resource_exhausted msg -> Error (Resources msg)
    | exception Nk_script.Interp.Terminated -> Error Killed
  in
  Stage.release stage;
  result

let failure_response = function
  | Script_failure _ -> Nk_http.Message.error_response 500
  | Resources _ -> Nk_http.Message.error_response 503
  | Killed -> Nk_http.Message.error_response 503

(* Bounds dynamic scheduling, so a misbehaving script cannot loop the
   scheduler forever. *)
let max_stages = 64

module Tracer = Nk_telemetry.Tracer

(* Never written: under a [None] root every span helper runs bare. *)
let untraced = Tracer.create ~clock:(fun () -> 0.0) ()

let execute ~load_stage ~fetch ?telemetry req =
  let initial = default_stages req in
  let fuel = ref 0 and heap = ref 0 and matched = ref 0 and handlers = ref 0 in
  let charge_stage stage before_fuel before_heap =
    let ctx = Stage.context stage in
    fuel := !fuel + (Nk_script.Interp.fuel_used ctx - before_fuel);
    heap := !heap + max 0 (Nk_script.Interp.heap_used ctx - before_heap)
  in
  (* Optional causal tracing: one "policy-match" span per stage
     selection and, per handler invocation, a "stage" span with an
     "interp" child carrying the fuel/heap the script consumed. *)
  let tracer = match telemetry with Some (tracer, _) -> tracer | None -> untraced in
  let root = Option.map snd telemetry in
  let select stage =
    Tracer.child tracer root ~attrs:[ ("stage", Stage.url stage) ] "policy-match" (fun span ->
        let policy = Stage.select stage req in
        Tracer.set_attr_opt span "matched" string_of_bool (policy <> None);
        policy)
  in
  let invoke stage ~phase ~response handler =
    incr handlers;
    let ctx = Stage.context stage in
    let f0 = Nk_script.Interp.fuel_used ctx and h0 = Nk_script.Interp.heap_used ctx in
    let result =
      Tracer.child tracer root ~attrs:[ ("stage", Stage.url stage); ("phase", phase) ] "stage"
        (fun stage_span ->
          let result =
            Tracer.child tracer stage_span "interp" (fun interp_span ->
                let r = run_handler stage ~this_request:req ~response handler in
                Tracer.set_attr_opt interp_span "fuel" string_of_int
                  (Nk_script.Interp.fuel_used ctx - f0);
                Tracer.set_attr_opt interp_span "heap" string_of_int
                  (max 0 (Nk_script.Interp.heap_used ctx - h0));
                r)
          in
          (match result with
           | Error _ -> Tracer.set_attr_opt stage_span "error" Fun.id "true"
           | Ok _ -> ());
          result)
    in
    charge_stage stage f0 h0;
    result
  in
  let finish response source =
    {
      response;
      source;
      stages_matched = !matched;
      handlers_run = !handlers;
      fuel = !fuel;
      heap = !heap;
    }
  in
  (* Forward pass: schedule stages and run onRequest handlers. *)
  let backward = ref [] in
  let rec forward stages budget =
    match stages with
    | [] -> `Fetch
    | _ when budget <= 0 -> `Fail (Script_failure "stage scheduling limit exceeded")
    | stage_url :: rest -> (
      match load_stage stage_url with
      | None -> forward rest budget (* missing script: stage is skipped *)
      | Some stage -> (
        match select stage with
        | None -> forward rest budget
        | Some policy -> (
          incr matched;
          backward := (stage, policy) :: !backward;
          let next = policy.Nk_policy.Policy.next_stages in
          let continue () = forward (next @ rest) (budget - 1) in
          match policy.Nk_policy.Policy.on_request with
          | None -> continue ()
          | Some handler -> (
            match invoke stage ~phase:"onRequest" ~response:None handler with
            | Ok (Some response) -> `Respond (response, Stage.url stage)
            | Ok None -> continue ()
            | Error failure -> `Fail failure))))
  in
  match forward initial max_stages with
  | `Fail failure -> finish (failure_response failure) (From_failure failure)
  | (`Fetch | `Respond _) as fwd -> (
    let response, source =
      match fwd with
      | `Respond (response, stage_url) -> (response, From_script stage_url)
      | `Fetch -> (fetch req, From_origin)
    in
    (* Backward pass: onResponse handlers in reverse scheduling order. *)
    let rec backward_pass = function
      | [] -> finish response source
      | (stage, policy) :: rest -> (
        match policy.Nk_policy.Policy.on_response with
        | None -> backward_pass rest
        | Some handler -> (
          match invoke stage ~phase:"onResponse" ~response:(Some response) handler with
          | Ok _ -> backward_pass rest
          | Error failure -> finish (failure_response failure) (From_failure failure)))
    in
    backward_pass !backward)
