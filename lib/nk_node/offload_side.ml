(* Computation diffusion (C3PO over the health plane): the offload plan,
   the sender's side of an offload, and the receiver's stage resolution. *)

open Edge

(* The name of the work this site's requests would run, offloadable only
   once known locally: [Some hash] when the stage is cached (a previous
   request warmed it), [Some ""] when the site is known to publish no
   script (walls-only pipeline), [None] when we have never looked — the
   first request must execute here and warm the caches. *)
let offload_hash t site =
  let url = Nk_pipeline.Pipeline.site_script_url site in
  match Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url with
  | Some entry -> Some (Nk_pipeline.Stage.digest entry.stage)
  | None -> (
    match Nk_cache.Memo_cache.find t.negative ~now:(now t) url with
    | Some () -> Some ""
    | None -> None)

(* Decide whether this request should diffuse. Entirely inert when
   diffusion is disabled — no rng draws, no metrics — so a disabled node
   behaves bit-identically to one built before diffusion existed. *)
let offload_plan t ~site =
  match t.diffusion with
  | None -> None
  | Some d -> (
    let p = pressure t in
    if p < d.policy.low_water then None
    else
      match offload_hash t site with
      | None -> None
      | Some script_hash -> (
        let candidates =
          Nk_diffusion.Policy.candidates t.redirector ~self:t.host ~now:(now t)
            ~staleness:d.policy.staleness ~fanout:d.policy.fanout
        in
        match
          Nk_diffusion.Policy.decide ~pressure:p ~low_water:d.policy.low_water ~candidates
        with
        | Nk_diffusion.Policy.Local -> None
        | Nk_diffusion.Policy.Offload eligible -> (
          match Nk_diffusion.Policy.pick ~rng:t.rng eligible with
          | None -> None
          | Some target -> Some (d, p, script_hash, target))))

(* Span-attribute formatters, called only under a live span. *)
let pressure_text p = Printf.sprintf "%.3f" p

let outcome_text = function
  | Some (Nk_diffusion.Offload.Executed _) -> "executed"
  | Some (Nk_diffusion.Offload.Rejected reason) -> "rejected:" ^ reason
  | None -> "timeout"

let offload_source target = "offload:" ^ target

(* Ship the request to [target]; any failure — open breaker, rejection,
   timeout — falls back to [fallback] (the normal local admission path),
   so diffusion can never lose a request, only decline to help. The
   request's trace ([ctx] is its arrival context) records the offload
   as its only phase. *)
let attempt_offload t ctx ~site ~plan:(d, p, script_hash, target) ~range req k ~fallback =
  let target_name = target.Nk_diffusion.Policy.name in
  let fall_back reason =
    Counter.incr_at t.metrics Meter.offload_fallbacks reason;
    fallback ()
  in
  match Nk_resource.Upstream.acquire t.upstream ("offload:" ^ target_name) with
  | `Reject _ -> fall_back "breaker-open"
  | `Proceed ticket ->
    (* The envelope ships the request's headers, so stamping the
       remaining budget here propagates it to the offload target; the
       reply timeout shrinks to the budget for the same reason the
       per-hop fetch timeouts do. *)
    stamp_deadline t ctx.deadline req;
    let send resume =
      Nk_diffusion.Offload.send d.offload ~target:target_name
        ~target_incarnation:target.Nk_diffusion.Policy.incarnation ~site ~script_hash
        ~timeout:(hop_timeout t ctx.deadline d.policy.offload_timeout)
        ~request:req ~on_done:resume
    in
    serve t ctx "request" req ~attrs:[]
      (fun rctx ->
        set_attr rctx.span "pressure" pressure_text p;
        let outcome =
          phase t rctx "offload" ~attrs:[ ("target", target_name) ] (fun octx ->
              let outcome = Nk_util.Cothread.await send in
              (* A rejection means the target answered: it is alive, just
                 unwilling. Not a breaker failure — tripping on a
                 loaded-but-healthy neighbor would blind us to it for a
                 whole cooldown. *)
              Nk_resource.Upstream.settle ticket (Option.is_some outcome);
              set_attr octx.span "outcome" outcome_text outcome;
              outcome)
        in
        match outcome with
        | Some (Nk_diffusion.Offload.Executed { response; fuel = _; heap = _ }) ->
          Counter.incr_at t.metrics Meter.offloads target_name;
          respond t rctx.span ?range response;
          set_attr rctx.span "source" offload_source target_name;
          Ok response
        | Some (Nk_diffusion.Offload.Rejected _) | None ->
          set_attr rctx.span "source" Fun.id "offload-fallback";
          Error (if Option.is_some outcome then "rejected" else "timeout"))
      (function Ok response -> k response | Error reason -> fall_back reason)

(* Receiver side: resolve the shipped hash to a runnable stage before
   the pipeline goes looking for a script. Runs inside the request's
   cothread (the hash-miss path awaits a bounded origin fetch). *)
let resolve_offload_stage t d (env : Nk_diffusion.Offload.request_envelope) =
  let site = env.Nk_diffusion.Offload.site in
  let url = Nk_pipeline.Pipeline.site_script_url site in
  let hash = env.Nk_diffusion.Offload.script_hash in
  if hash = "" then begin
    (* The sender knows the site publishes no script; spare the pipeline
       the origin probe it would otherwise pay to learn the same. *)
    if offload_hash t site = None then
      Nk_cache.Memo_cache.put t.negative ~key:url
        ~expiry:(now t +. Stages.negative_ttl) ()
  end
  else if Nk_cache.Memo_cache.find t.stage_cache ~now:(now t) url <> None then ()
  else
    match Nk_script.Compile.find_cached_by_hash hash with
    | Some script -> ignore (Stages.install_stage_from_program t ~url ~site script)
    | None ->
      (* Hash miss: the program fell out of the (LRU-bounded) compile
         cache, or was never compiled in this process. Fetch the script
         from the origin under its own — short — deadline and warm the
         HTTP cache so the pipeline's stage load finds it without paying
         [origin_timeout]. *)
      Counter.incr t.metrics Meter.hash_misses;
      let req = Nk_http.Message.request url in
      (match
         await_fetch_opt t ~via:None ~timeout:d.policy.fetch_timeout req
       with
       | Some resp when Nk_http.Status.is_success resp.Nk_http.Message.status ->
         let key = Fetch.cache_key req in
         let dht_key = lazy (Nk_overlay.Dht.Key.of_string key) in
         Fetch.insert_if_cacheable t ~key ~dht_key req resp
       | _ -> ())
