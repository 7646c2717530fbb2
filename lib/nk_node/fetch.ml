(* The content handler: proxy cache, then cooperative cache (DHT, hedged
   and verified peers), then the origin, and insertion of the answer. *)

open Edge

let peer_header = "X-NK-Peer"

(* Seconds before giving up on an origin fetch (and degrading to a
   stale copy) and on one cooperative-cache peer (and trying the next);
   on origin failure, a cached copy that expired at most
   [stale_if_error] seconds ago is served (RFC 2616 stale-if-error). *)
let origin_timeout = 10.0
let peer_timeout = 3.0
let stale_if_error = 900.0

let cache_key (req : Nk_http.Message.request) =
  Nk_http.Method_.to_string req.Nk_http.Message.meth
  ^ " "
  ^ Nk_http.Url.to_string req.Nk_http.Message.url

(* Announce this node in the DHT as a holder of [key] (hashed only if
   announced) until [expiry], for at most [dht_ttl]. *)
let announce t dht ~key ~expiry =
  let ttl = Float.min t.cfg.Config.dht_ttl (expiry -. now t) in
  if ttl > 0.0 then
    ignore
      (Nk_overlay.Dht.put_key dht ~now:(now t) ~from:(name t) ~key:(Lazy.force key)
         ~value:(name t) ~ttl)

(* [key] is [cache_key req]; [dht_key] is its DHT key. Only a copy the
   cache kept is announced: a peer sent here for one it refused would
   find nothing. *)
let insert_if_cacheable t ~key ~dht_key req resp =
  if Nk_http.Message.cacheable req resp then begin
    let expiry = Nk_http.Message.response_expiry ~now:(now t) resp in
    if Nk_cache.Http_cache.store t.cache ~now:(now t) ~key ~expiry resp then
      match (expiry, t.dht) with
      | Some expiry, Some dht -> announce t dht ~key:dht_key ~expiry
      | _ -> ()
  end

(* --- tail tolerance: hedged replica fetches -------------------------- *)

(* The hedge delay for peer fetches: the upstream's observed p95 (the
   [fetch.latency] histogram this node records while hedging is
   enabled), bounded by the hop timeout; a quarter of the timeout
   stands in until the histogram has seen enough samples. *)
let hedge_delay t ~timeout =
  Float.min timeout
    (Nk_resource.Hedge.delay
       ?histogram:
         (Hist.find_at t.metrics Meter.fetch_latency "peer")
       ~fallback:(timeout /. 4.0) ())

(* Race a cooperative-cache peer fetch against one hedged backup
   replica. The primary is fetched immediately; if it has not answered
   after [delay] and the governor grants a token, the same request goes
   to [backup] and whichever response arrives first wins — the loser's
   callback is discarded by the [resolved] latch here, and across
   crashes by the net layer's incarnation guard (a response from a
   pre-crash epoch never reaches us at all). Returns the winning
   response ([None] when nothing answered inside [timeout]) plus the
   name of the peer that served it.

   Upstream accounting: the caller accounts the *winning* arm from the
   verified outcome, exactly as on the unhedged path. A losing primary
   settles its [ticket] here — success/failure by status when its
   response straggles in, failure at [timeout] when it never answers —
   so a hedge win can neither mask a dead peer nor strand a half-open
   probe slot. A losing backup never held a ticket and is left alone;
   its late response only counts [hedge.cancelled]. *)
let hedged_peer_fetch t ~hedge ~primary:(peer, peer_host, ticket) ~backup ~delay ~timeout
    ~deadline req =
  Nk_util.Cothread.await (fun resume ->
      let resolved = ref false in
      let primary_done = ref false in
      let winner = ref "" in
      let hedge_timer = ref None in
      let finish server resp =
        if not !resolved then begin
          resolved := true;
          winner := server;
          Option.iter (Nk_sim.Sim.cancel t.sim) !hedge_timer;
          resume (resp, server)
        end
      in
      let settle_primary ok =
        if not !primary_done then begin
          primary_done := true;
          if !resolved && !winner <> peer then Nk_resource.Upstream.settle ticket ok
        end
      in
      let timeout_timer =
        Nk_sim.Sim.timer t.sim ~delay:timeout (fun () ->
            settle_primary false;
            finish peer None)
      in
      let started = now t in
      Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:peer_host req (fun r ->
          Hist.observe_at t.metrics Meter.fetch_latency "peer" (now t -. started);
          settle_primary (r.Nk_http.Message.status < 500);
          finish peer (Some r);
          (* Resolved, and the primary settled: the timeout has nothing
             left to do. *)
          Nk_sim.Sim.cancel t.sim timeout_timer);
      match backup with
      | None -> ()
      | Some (backup_name, backup_host) ->
        if delay < timeout then
          hedge_timer :=
            Some
              (Nk_sim.Sim.timer t.sim ~delay (fun () ->
                   if (not !resolved) && Nk_resource.Hedge.try_hedge hedge then begin
                     let breq = Nk_http.Message.copy_request req in
                     stamp_deadline t deadline breq;
                     Nk_sim.Httpd.fetch_via t.web ~from:t.host ~via:backup_host breq
                       (fun r ->
                         if !resolved then Nk_resource.Hedge.cancelled hedge
                         else Nk_resource.Hedge.won hedge;
                         finish backup_name (Some r))
                   end)))

(* Fetch content for [req]: proxy cache, then cooperative cache, then
   origin. Runs inside a cothread, under the request context [ctx]: its
   span parents every phase below, and its deadline is the request's
   remaining budget: every hop below runs under [min per-hop-timeout
   remaining]. *)
let content_fetch t ?(allow_peers = true) ctx (req : Nk_http.Message.request) =
  let deadline = ctx.deadline in
  let key = cache_key req in
  let dht_key = lazy (Nk_overlay.Dht.Key.of_string key) in
  let cached =
    phase t ctx "cache-lookup" (fun { span = sp; _ } ->
        let hit = Nk_cache.Http_cache.lookup t.cache ~now:(now t) ~key in
        set_attr sp "hit" (string_of_bool (hit <> None));
        (match hit with
         | Some _ -> charge_cpu t costs.Config.cache_hit
         | None -> ());
        hit)
  in
  match cached with
  | Some resp -> resp
  | None -> (
    let from_origin () =
      if deadline_expired t deadline then deadline_expired_response t ~at:"origin"
      else
      phase t ctx "origin-fetch" (fun ({ span = osp; _ } as octx) ->
          (* A stale copy with a validator turns the refetch into a
             conditional GET; a 304 refreshes the entry without moving the
             body again (RFC 2616 revalidation under the web's
             expiration-based consistency model). *)
          let conditional old (name, value) =
            let creq = Nk_http.Message.copy_request req in
            Nk_http.Message.set_req_header creq name value;
            (creq, Some old)
          in
          let req, validator =
            match Nk_cache.Http_cache.lookup_stale t.cache ~key with
            | None -> (req, None)
            | Some (old, _) -> (
              match Nk_http.Message.resp_header old "ETag" with
              | Some etag -> conditional old ("If-None-Match", etag)
              | None -> (
                match Nk_http.Message.resp_header old "Last-Modified" with
                | Some lm -> conditional old ("If-Modified-Since", lm)
                | None -> (req, None)))
          in
          let do_fetch sp =
            let resp =
              await_fetch_opt t ~via:None
                ~timeout:(hop_timeout t deadline origin_timeout)
                req
            in
            Counter.incr t.metrics Meter.origin_fetches;
            set_attr sp "status"
              (match resp with
               | Some r -> string_of_int r.Nk_http.Message.status
               | None -> "timeout");
            resp
          in
          (* A tripped breaker short-circuits the fetch entirely: the
             dead origin costs one probe per cooldown, not one
             [origin_timeout] per request. The short-circuited request
             still degrades to a stale copy when one exists. *)
          let origin_key = "origin:" ^ Nk_http.Url.site req.Nk_http.Message.url in
          let resp, short_circuit =
            match Nk_resource.Upstream.acquire t.upstream origin_key with
            | `Reject retry ->
              set_attr osp "breaker" "open";
              (None, Some retry)
            | `Proceed ticket ->
              let attempt () =
                match validator with
                | None -> do_fetch osp
                | Some _ ->
                  phase t octx "revalidation" (fun { span = rsp; _ } ->
                      let resp = do_fetch rsp in
                      set_attr rsp "not-modified"
                        (string_of_bool
                           (match resp with
                            | Some r -> r.Nk_http.Message.status = 304
                            | None -> false));
                      resp)
              in
              let answered resp =
                match resp with
                | None -> false
                | Some r -> r.Nk_http.Message.status < 500
              in
              let resp = attempt () in
              (* One budgeted retry: a transient origin failure (timeout,
                 5xx) gets a second attempt only while the upstream's
                 retry budget — refilled by its own successes — grants a
                 token and the request's deadline still has time left. *)
              let resp =
                if answered resp then resp
                else
                  match Nk_resource.Upstream.retry t.upstream ?deadline origin_key with
                  | `Granted ->
                    Counter.incr_at t.metrics Meter.retry_attempts origin_key;
                    set_attr osp "retried" "true";
                    attempt ()
                  | `Refused | `Unbudgeted -> resp
              in
              Nk_resource.Upstream.settle ~budget:origin_key ticket (answered resp);
              (resp, None)
          in
          (* Stale-if-error (RFC 2616 §13.1.5 spirit): when the origin
             times out or answers with a server error, a cached copy
             that expired no more than [stale_if_error] seconds ago is
             better than failing the client. The [X-NaKika-Stale]
             header carries the staleness in seconds so clients and
             tests can tell degraded responses apart. *)
          let degrade () =
            match Nk_cache.Http_cache.lookup_stale t.cache ~key with
            | Some (old, expiry)
              when Nk_http.Status.is_success old.Nk_http.Message.status
                   && now t -. expiry <= stale_if_error ->
              let age = Float.max 0.0 (now t -. expiry) in
              Nk_http.Message.set_resp_header old "X-NaKika-Stale"
                (string_of_int (int_of_float age));
              Counter.incr t.metrics Meter.stale_served;
              set_attr osp "stale" "true";
              Some old
            | _ -> None
          in
          match resp with
          | Some resp when resp.Nk_http.Message.status < 500 -> (
            match (resp.Nk_http.Message.status, validator) with
            | 304, Some old ->
              Counter.incr t.metrics Meter.revalidations;
              (match Nk_http.Message.response_expiry ~now:(now t) resp with
               | Some expiry -> Nk_cache.Http_cache.refresh t.cache ~key ~expiry
               | None -> Nk_cache.Http_cache.remove t.cache ~key);
              old
            | _ ->
              insert_if_cacheable t ~key ~dht_key req resp;
              resp)
          | _ -> (
            match (degrade (), resp, short_circuit) with
            | Some old, _, _ -> old
            | None, Some resp, _ -> resp
            (* No stale fallback and an open breaker: fail fast with a
               retry hint instead of pretending we waited. *)
            | None, None, Some retry -> retry_after_response retry
            | None, None, None -> Nk_http.Message.error_response 504))
    in
    match t.dht with
    | Some dht when allow_peers ->
      let result =
        phase t ctx "dht-lookup" (fun { span = sp; _ } ->
            let result =
              Nk_overlay.Dht.get_key dht ~now:(now t) ~from:(name t) ~key:(Lazy.force dht_key)
            in
            charge_cpu t
              (float_of_int (max 1 result.Nk_overlay.Dht.hops)
              *. costs.Config.dht_per_hop);
            set_attr sp "hops" (string_of_int result.Nk_overlay.Dht.hops);
            set_attr sp "values" (string_of_int (List.length result.Nk_overlay.Dht.values));
            result)
      in
      let peers =
        List.filter (fun peer -> peer <> name t) result.Nk_overlay.Dht.values
      in
      (* Try up to two announced peers, each under [peer_timeout] (and
         the request's remaining budget); a peer that times out, fails,
         or serves tampered content falls through to the next candidate
         and finally to the origin. *)
      let rec try_peers budget candidates =
        match candidates with
        | [] -> from_origin ()
        | _ when budget = 0 || deadline_expired t deadline ->
          (* With no budget left for a peer hop, [from_origin] answers
             the machine-readable 504. *)
          from_origin ()
        | peer :: rest -> (
          match Nk_resource.Upstream.acquire t.upstream ("peer:" ^ peer) with
          | `Reject _ ->
            (* A peer behind an open breaker is skipped outright — and
               without consuming the budget, so one dead peer doesn't
               halve our cooperative-cache reach. *)
            try_peers budget rest
          | `Proceed ticket -> (
          match Nk_sim.Httpd.resolve t.web peer with
          | None ->
            (* Release the (possibly half-open probe) slot we claimed. *)
            Nk_resource.Upstream.settle ticket false;
            from_origin ()
          | Some peer_host ->
            Counter.incr t.metrics Meter.dht_hits;
            let peer_resp, served_by =
              phase t ctx "peer-fetch" ~attrs:[ ("peer", peer) ]
                (fun ({ span = psp; _ } as pctx) ->
                  let peer_req = Nk_http.Message.copy_request req in
                  Nk_http.Message.set_req_header peer_req peer_header "1";
                  stamp_deadline t deadline peer_req;
                  let timeout = hop_timeout t deadline peer_timeout in
                  let raw, served_by =
                    match t.hedge with
                    | None ->
                      (await_fetch_opt t ~via:(Some peer_host) ~timeout peer_req, peer)
                    | Some hedge ->
                      (* The backup is the next live replica: the
                         remaining announced holders first, then the
                         key's ring replica set ([Ring.successors]). *)
                      Nk_resource.Hedge.note_primary hedge;
                      let backup =
                        rest @ Nk_overlay.Dht.replica_names dht ~key:(Lazy.force dht_key)
                        |> List.find_opt (fun c -> c <> peer && c <> name t)
                        |> fun c ->
                        Option.bind c (fun c ->
                            Option.map
                              (fun h -> (c, h))
                              (Nk_sim.Httpd.resolve t.web c))
                      in
                      let delay = hedge_delay t ~timeout in
                      set_attr psp "hedge_delay" (Printf.sprintf "%.4f" delay);
                      let resp, server =
                        hedged_peer_fetch t ~hedge ~primary:(peer, peer_host, ticket)
                          ~backup ~delay ~timeout ~deadline peer_req
                      in
                      if server <> peer then set_attr psp "hedge_winner" server;
                      (resp, server)
                  in
                  match raw with
                  | None ->
                    set_attr psp "timeout" "true";
                    (None, served_by)
                  | Some resp ->
                    let verified =
                      match t.cfg.Config.integrity_key with
                      | None -> true
                      | Some key ->
                        (* Peer-served content comes from an untrusted node:
                           check the §6 integrity headers and fall back to the
                           origin on any violation. Content that never carried
                           integrity headers is unprotected (a producer opt-in);
                           stripping attacks are the probabilistic verifier's
                           job, not this check's. *)
                        phase t pctx "integrity-verify" (fun { span = vsp; _ } ->
                            match Nk_integrity.Integrity.verify ~key ~now:(now t) resp with
                            | Ok () ->
                              set_attr vsp "result" "ok";
                              true
                            | Error Nk_integrity.Integrity.Missing_headers ->
                              Counter.incr t.metrics Meter.integrity_unverified;
                              set_attr vsp "result" "unverified";
                              true
                            | Error violation ->
                              Counter.incr t.metrics Meter.integrity_violations;
                              set_attr vsp "result" "violation";
                              Logs.warn (fun m ->
                                  m "[%s] integrity violation from %s: %s" (name t) peer
                                    (Nk_integrity.Integrity.violation_to_string violation));
                              false)
                    in
                    set_attr psp "verified" (string_of_bool verified);
                    if verified && Nk_http.Status.is_success resp.Nk_http.Message.status
                    then (Some resp, served_by)
                    else (None, served_by))
            in
            (* Accounting goes to the arm that actually served. A
               winning hedged backup never held a ticket: its outcome
               is recorded without one, and the losing primary's
               ticket is settled by [hedged_peer_fetch]. *)
            let ok = Option.is_some peer_resp in
            if served_by = peer then Nk_resource.Upstream.settle ~budget:"peer" ticket ok
            else Nk_resource.Upstream.record t.upstream ~budget:"peer" ("peer:" ^ served_by) ok;
            match peer_resp with
            | Some resp ->
              Counter.incr t.metrics Meter.peer_fetches;
              insert_if_cacheable t ~key ~dht_key req resp;
              resp
            | None ->
              (* Trying the next candidate is a retry of the upstream
                 class: under a retry budget it must find a token, or
                 the chain collapses straight to the origin. *)
              if
                budget > 1 && rest <> []
                && Nk_resource.Upstream.retry t.upstream "peer" = `Refused
              then from_origin ()
              else try_peers (budget - 1) rest))
      in
      try_peers 2 peers
    | _ -> from_origin ())
