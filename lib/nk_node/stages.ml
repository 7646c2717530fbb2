(* A request's scripts: the hostcall handed to vocabularies, stage
   loading, and [process], which runs the pipeline and accounts for it. *)

open Edge

let replica t site =
  match Hashtbl.find_opt t.replicas site with
  | Some r -> r
  | None ->
    let r =
      Nk_replication.Replication.attach ~bus:t.bus ~name:(name t) ~host:t.host ~store:t.store
        ~site Nk_replication.Replication.Optimistic
    in
    (* Re-converge after partitions that outlast the bus's retry budget:
       periodically re-broadcast everything this replica knows. *)
    Nk_replication.Replication.start_anti_entropy r;
    Hashtbl.add t.replicas site r;
    r

(* Emission control (§3.2): hosted scripts' own web accesses pass the
   server-side administrative wall before leaving the node. The wall
   stage is loaded through the regular cached path; [load_wall] is tied
   in after stage loading is defined. *)
let emission_check t (req : Nk_http.Message.request) ~load_wall =
  match load_wall t with
  | None -> None
  | Some stage -> (
    match Nk_pipeline.Stage.select stage req with
    | None -> None
    | Some policy -> (
      match policy.Nk_policy.Policy.on_request with
      | None -> None
      | Some handler -> (
        match
          Nk_pipeline.Pipeline.run_handler stage ~this_request:req ~response:None handler
        with
        | Ok (Some denial) ->
          Counter.incr t.metrics Meter.emission_denials;
          Some denial
        | Ok None -> None
        | Error _ -> Some (Nk_http.Message.error_response 500))))

let hostcall t ~site ~load_wall : Nk_vocab.Hostcall.t =
  let vocab_key key = Printf.sprintf "vocab:%s:%s" site key in
  let open Nk_replication in
  {
    Nk_vocab.Hostcall.now = (fun () -> now t);
    site;
    fetch =
      (fun req ->
        (* Hostcall closures are per-stage, not per-request: run the
           script's own fetch in whatever request context currently owns
           the CPU (best effort under cothread interleaving). *)
        let resp =
          phase t t.active "script-fetch" ~attrs:[ ("site", site) ] (fun ctx ->
              match emission_check t req ~load_wall with
              | Some denial ->
                set_attr ctx.span "denied" Fun.id "true";
                denial
              | None -> Fetch.content_fetch t ctx req)
        in
        Control.charge_fetch t.controls ~site resp;
        resp);
    cache_lookup =
      (fun key -> Nk_cache.Http_cache.lookup t.cache ~now:(now t) ~key:(vocab_key key));
    cache_store =
      (fun ~key ~ttl resp ->
        Nk_cache.Http_cache.insert t.cache ~now:(now t) ~key:(vocab_key key)
          ~expiry:(Some (now t +. ttl)) resp);
    log = (fun msg -> Logs.debug (fun m -> m "[%s/%s] %s" (name t) site msg));
    is_local =
      (fun ip_str ->
        match Nk_http.Ip.of_string ip_str with
        | Error _ -> false
        | Ok ip -> List.exists (fun cidr -> Nk_http.Ip.cidr_contains cidr ip) t.local_cidrs);
    congestion = (fun resource_name -> Control.usage t.controls ~site resource_name);
    hard_state_get = (fun ~key -> Replication.read (replica t site) ~key);
    hard_state_put = (fun ~key value -> Replication.update (replica t site) ~key ~value);
    hard_state_delete = (fun ~key -> Replication.delete (replica t site) ~key);
    hard_state_keys = (fun ~prefix -> Replication.keys (replica t site) ~prefix);
    publish =
      (fun ~topic payload -> Message_bus.publish t.bus ~from:(name t) ~topic ~payload);
    enable_access_log = (fun ~url -> Hashtbl.replace t.log_urls site url);
  }

(* --- stage loading: fetch, evaluate, cache --------------------------- *)

(* A stage script without explicit expiry stays cached [script_ttl]
   seconds; a site without [nakika.js] (or a failed stage) is
   remembered [negative_ttl]. Every stage's interpreter starts from
   [script_seed]; the node's own rng from it plus its name's length. *)
let script_ttl = 300.0
let negative_ttl = 60.0
let script_seed = 7

(* Per-site sandbox caps lowered from a provisioning plan
   ([site "..." { fuel <= N; heap <= N }]): the effective limit is the
   global cap tightened by the first matching site rule. *)
let site_limit ~site overrides global =
  match
    List.find_map
      (fun (pattern, v) -> if Nk_resource.Shares.matches ~pattern site then Some v else None)
      overrides
  with
  | Some v -> min global v
  | None -> global

(* Admission of a fetched script body: [Stage.of_script] looks it up in
   the process-wide script cache and lints it under the node's
   [lint_mode]; the node exports the diagnostic counts and the
   compile-cache outcome, and traces the lint (refused under strict
   mode before any script code runs) and the compile. *)
let compile_source t ctx ~url ~site ~source ~host ~max_fuel ~max_heap_bytes ~seed =
  (* Whether this script body was already compiled (by this or any other
     simulated node in the process) or cost a fresh parse+compile. *)
  let on_compile_cache outcome =
    match outcome with
    | `Hit -> Counter.incr_at t.metrics Meter.compile_hits site
    | `Miss -> Counter.incr_at t.metrics Meter.compile_misses site
  in
  let on_lint report =
    phase t ctx "script.lint" ~attrs:[ ("stage", url) ] (fun { span = sp; _ } ->
        let errors = Nk_analysis.Analysis.errors report in
        let warnings = Nk_analysis.Analysis.warnings report in
        set_attr sp "errors" string_of_int errors;
        set_attr sp "warnings" string_of_int warnings;
        if errors > 0 then
          Counter.incr_at t.metrics ~by:errors Meter.lint_errors site;
        if warnings > 0 then
          Counter.incr_at t.metrics ~by:warnings Meter.lint_warnings site;
        if t.cfg.Config.lint_mode = `Strict && errors > 0 then set_attr sp "rejected" Fun.id "true")
  in
  phase t ctx "script.compile" ~attrs:[ ("stage", url) ] (fun _ ->
      Nk_pipeline.Stage.of_script ~url ~host ~max_fuel ~max_heap_bytes ~seed
        ~on_compile_cache ~lint:t.cfg.Config.lint_mode ~on_lint ~source ())

(* Stage installation, shared by every way a stage is made. The node
   joins the site's replication group up front, so updates published
   before its first hard-state access still arrive, and hands [build] a
   hostcall whose fetches pass the server-side wall. A built stage
   folds each request's fuel and heap into the per-site histograms and
   is cached under [url] until the freshness of [response] (the origin
   answer its source came from) or [script_ttl]. A failure is counted,
   logged and negative-cached like any other script error. *)
let rec install_stage t ~url ~site ?response build =
  ignore (replica t site);
  (* The administrative stages themselves are exempt from emission
     control (they *are* the control, and routing them through it would
     recurse). *)
  let load_wall t =
    if url = Nk_pipeline.Pipeline.well_known_server_wall then None
    else load_stage t untraced Nk_pipeline.Pipeline.well_known_server_wall
  in
  match
    build ~host:(hostcall t ~site ~load_wall)
      ~max_fuel:(site_limit ~site t.cfg.Config.site_fuel t.cfg.Config.script_max_fuel)
      ~max_heap_bytes:(site_limit ~site t.cfg.Config.site_heap t.cfg.Config.script_max_heap)
      ~seed:script_seed
  with
  | Ok stage ->
    (* Context reuse reports the previous pipeline's consumption. *)
    Nk_script.Interp.set_usage_observer (Nk_pipeline.Stage.context stage)
      (fun ~fuel ~heap ->
        if fuel > 0 then
          Hist.observe_at t.metrics Meter.script_fuel site (float_of_int fuel);
        if heap > 0 then
          Hist.observe_at t.metrics Meter.script_heap site (float_of_int heap));
    let expiry =
      match Option.bind response (Nk_http.Message.response_expiry ~now:(now t)) with
      | Some e -> e
      | None -> now t +. script_ttl
    in
    Nk_cache.Memo_cache.put t.stage_cache ~key:url ~expiry { stage; site };
    Ok stage
  | Error msg as e ->
    Counter.incr t.metrics Meter.script_errors;
    Logs.warn (fun m -> m "[%s] stage %s failed: %s" (name t) url msg);
    Nk_cache.Memo_cache.put t.negative ~key:url
      ~expiry:(now t +. negative_ttl) ();
    e

and load_stage t ctx url =
  match Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url with
  | Some entry ->
    charge_cpu t
      (costs.Config.tree_cached +. costs.Config.context_reuse);
    (* Context reuse resets the usage counters (§4); like the prototype,
       a pipeline suspended mid-request shares the stage context, so the
       reset is best effort. *)
    Nk_script.Interp.reset_usage (Nk_pipeline.Stage.context entry.stage);
    Some entry.stage
  | None -> (
    match Nk_cache.Memo_cache.find t.negative ~now:(now t) url with
    | Some () -> None
    | None -> (
      match Nk_http.Url.parse url with
      | Error _ -> None
      | Ok parsed ->
        phase t ctx "load-stage" ~attrs:[ ("stage", url) ] (fun lctx ->
        let req = Nk_http.Message.request url in
        (* Deliberately not under the request's deadline budget: a tight
           budget expiring a script fetch would negative-cache the site
           for [negative_ttl], degrading every later request. *)
        let resp = Fetch.content_fetch t { lctx with deadline = None } req in
        if not (Nk_http.Status.is_success resp.Nk_http.Message.status) then begin
          (* Remember that this site publishes no script (§4). *)
          Nk_cache.Memo_cache.put t.negative ~key:url
            ~expiry:(now t +. negative_ttl) ();
          None
        end
        else begin
          let source = Nk_http.Body.to_string resp.Nk_http.Message.resp_body in
          charge_cpu t
            (costs.Config.context_create +. costs.Config.parse_base
            +. (costs.Config.parse_per_byte *. float_of_int (String.length source)));
          let site = Nk_http.Url.site parsed in
          Result.to_option
            (install_stage t ~url ~site ~response:resp
               (compile_source t lctx ~url ~site ~source))
        end)))

(* Install a stage straight from a compiled program (the diffusion
   receiver's path: the offload envelope named the script by SHA-256 and
   the compile cache still holds it — no source, no parse, no lint; the
   node that compiled it linted it). *)
let install_stage_from_program t ~url ~site script =
  Result.is_ok
    (install_stage t ~url ~site (fun ~host ~max_fuel ~max_heap_bytes ~seed ->
         charge_cpu t costs.Config.context_create;
         Nk_pipeline.Stage.of_program ~url ~host ~max_fuel ~max_heap_bytes ~seed script))

(* Fig. 6's termination of [site]: kill the scripting context of every
   cached stage it owns (its [nakika.js] and whatever it chained to);
   in-flight pipelines die at their next evaluation step. *)
let kill_stages stage_cache site =
  Nk_cache.Memo_cache.fold stage_cache ~init:[] ~f:(fun acc url entry ->
      if entry.site = site then (url, entry) :: acc else acc)
  |> List.iter (fun (url, entry) ->
         Nk_script.Interp.kill (Nk_pipeline.Stage.context entry.stage);
         Nk_cache.Memo_cache.remove stage_cache url)

let access_log t ~site ~(req : Nk_http.Message.request) ~(resp : Nk_http.Message.response) =
  if Hashtbl.mem t.log_urls site then begin
    let entry =
      Printf.sprintf "%.3f %s %s %d" (now t)
        (Nk_http.Ip.to_string req.Nk_http.Message.client.Nk_http.Ip.ip)
        (Nk_http.Url.to_string req.Nk_http.Message.url)
        resp.Nk_http.Message.status
    in
    match Hashtbl.find_opt t.log_entries site with
    | Some r -> r := entry :: !r
    | None -> Hashtbl.add t.log_entries site (ref [ entry ])
  end

(* The request span's ["source"] when a stage script answered. *)
let script_source url = "script:" ^ url

(* Process one client request inside a cothread; returns the response
   plus the interpreter fuel and heap the pipeline consumed (offload
   replies ship those, so a remote execution stays accountable). *)
let process t ctx (req : Nk_http.Message.request) =
  let started = now t in
  let site = Nk_http.Url.site req.Nk_http.Message.url in
  t.in_flight <- t.in_flight + 1;
  let concurrency = float_of_int t.in_flight *. costs.Config.concurrency_cpu in
  (match ctx.deadline with
   | Some d ->
     set_attr ctx.span "deadline_remaining" seconds_text
       (Nk_resource.Deadline.remaining d ~now:(now t))
   | None -> ());
  (* Expose this request's context to the hostcall closures while the
     pipeline runs (best effort: restored even on exceptions, but a
     suspended pipeline's sub-fetches may interleave), so scripts' own
     fetches run under its span and deadline budget. *)
  let saved = t.active in
  t.active <- ctx;
  let response, fuel, heap, handlers =
    Fun.protect
      ~finally:(fun () -> t.active <- saved)
      (fun () ->
        if not t.cfg.Config.enable_pipeline then (Fetch.content_fetch t ctx req, 0, 0, 0)
        else begin
          let telemetry =
            match ctx.span with Some s -> Some (t.tracer, s) | None -> None
          in
          let outcome =
            Nk_pipeline.Pipeline.execute
              ~load_stage:(fun url ->
                let stage = load_stage t ctx url in
                (match stage with
                 | Some _ -> charge_cpu t costs.Config.predicate_eval
                 | None -> ());
                stage)
              ~fetch:(fun req -> Fetch.content_fetch t ctx req)
              ?telemetry req
          in
          (match outcome.Nk_pipeline.Pipeline.source with
           | Nk_pipeline.Pipeline.From_failure Nk_pipeline.Pipeline.Killed ->
             Counter.incr t.metrics Meter.dropped_termination;
             set_attr ctx.span "source" Fun.id "killed"
           | Nk_pipeline.Pipeline.From_failure _ ->
             Counter.incr t.metrics Meter.script_errors;
             set_attr ctx.span "source" Fun.id "failure"
           | Nk_pipeline.Pipeline.From_script stage_url ->
             set_attr ctx.span "source" script_source stage_url
           | Nk_pipeline.Pipeline.From_origin -> set_attr ctx.span "source" Fun.id "origin");
          ( outcome.Nk_pipeline.Pipeline.response,
            outcome.Nk_pipeline.Pipeline.fuel,
            outcome.Nk_pipeline.Pipeline.heap,
            outcome.Nk_pipeline.Pipeline.handlers_run )
        end)
  in
  (* Handler CPU: engine crossings, interpreter fuel, and allocation
     (GC/paging) pressure. *)
  let handler_cpu =
    (float_of_int fuel *. costs.Config.handler_per_fuel)
    +. (float_of_int heap *. costs.Config.heap_cpu_per_byte)
  in
  let crossing_cpu = float_of_int handlers *. costs.Config.handler_invoke in
  charge_cpu t handler_cpu;
  (* Bookkeeping, engine crossings and concurrency (scheduling/paging)
     pressure occupy the CPU — limiting capacity — but overlap this
     request's network time rather than delaying its response. *)
  charge_cpu_background t (costs.Config.proxy_base +. concurrency +. crossing_cpu);
  t.in_flight <- t.in_flight - 1;
  let elapsed = now t -. started in
  (match t.controls with
   | Some controls ->
     Control.account controls ~site
       ~cpu:(costs.Config.proxy_base +. concurrency +. handler_cpu +. crossing_cpu)
       ~heap ~response ~elapsed
   | None -> ());
  access_log t ~site ~req ~resp:response;
  Hist.observe t.metrics Meter.latency elapsed;
  Counter.incr_at t.metrics Meter.site_requests site;
  Hist.observe_at t.metrics Meter.site_latency site elapsed;
  (response, fuel, heap)
