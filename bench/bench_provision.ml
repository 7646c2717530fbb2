(* Provisioning acceptance: a verified multi-tenant capacity plan,
   lowered by nk_provision into the proxy's config, must actually
   deliver the declared fair shares under a flash crowd.

   Three tenants declare 50/30/20 shares of a 20-slot admission queue.
   Every tenant offers far more load than its slice can serve (16
   closed-loop generators each against a ~600 rps node), so the queue
   stays contended for the whole run and the fair-share gate — not
   demand — decides who gets in. The per-site fraction of successful
   responses then measures the share each tenant actually received;
   the experiment passes when every measured share is within 10%
   (relative) of the declared one, and BENCH_provision.json records
   declared vs measured per site. *)

module Metrics = Core.Telemetry.Metrics
module Sim = Core.Sim.Sim
module P = Core.Provision.Provision

let plan_text =
  "# bench: three tenants with declared fair shares\n\
   node \"*\" {\n\
  \  capacity { admission = 20; target = 500ms }\n\
   }\n\
   site \"video.example\" { share >= 50% }\n\
   site \"news.example\"  { share >= 30% }\n\
   site \"shop.example\"  { share >= 20% }\n"

let tenants = [ ("video.example", 0.50); ("news.example", 0.30); ("shop.example", 0.20) ]

let generators_per_site = 16

let warmup = 3.0

let duration = 15.0

let provision () =
  Harness.header "Provisioned fair shares (plan-declared vs measured under overload)";
  let report = P.compile plan_text in
  if P.errors report > 0 then begin
    List.iter
      (fun d -> Printf.printf "  %s\n" (Core.Analysis.Diagnostic.to_string d))
      report.P.diagnostics;
    failwith "bench_provision: the embedded plan failed to verify"
  end;
  let config =
    match P.config_for report ~node:"nk1.nakika.net" with
    | Some c -> c
    | None -> failwith "bench_provision: plan lowered no config for the proxy"
  in
  (match P.hash report with
   | Some h -> Printf.printf "  plan %s -> admission %d slots\n" (String.sub h 0 12)
                 (Core.Provision.Verify.admission_of config).Core.Resource.Admission.capacity
   | None -> ());
  let cluster = Core.Node.Cluster.create ~seed:11 () in
  List.iter
    (fun (site, _) ->
      let origin = Core.Node.Cluster.add_origin cluster ~name:site () in
      Core.Node.Origin.set_static origin ~path:"/index.html" ~max_age:300
        (Printf.sprintf "<html>%s</html>" site))
    tenants;
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" ~config () in
  Harness.attach_node proxy;
  let sim = Core.Node.Cluster.sim cluster in
  let t0 = Sim.now sim in
  let measure_from = t0 +. warmup in
  let until = measure_from +. duration in
  let ok = Hashtbl.create 4 and shed = Hashtbl.create 4 in
  let bump table site =
    Hashtbl.replace table site (1 + Option.value ~default:0 (Hashtbl.find_opt table site))
  in
  List.iter
    (fun (site, _) ->
      for g = 0 to generators_per_site - 1 do
        let client =
          Core.Node.Cluster.add_client cluster ~name:(Printf.sprintf "%s-lg%d" site g)
        in
        Core.Workload.Driver.closed_loop cluster ~client ~proxy ~until ~think:0.005
          ~make_request:(fun _ ->
            Core.Http.Message.request (Printf.sprintf "http://%s/index.html" site))
          ~on_response:(fun _ _ resp _ ->
            if Sim.now sim >= measure_from then
              if resp.Core.Http.Message.status = 200 then bump ok site
              else bump shed site)
          ()
      done)
    tenants;
  Sim.run ~until:(until +. 5.0) sim;
  let ok_of site = Option.value ~default:0 (Hashtbl.find_opt ok site) in
  let total_ok = List.fold_left (fun acc (site, _) -> acc + ok_of site) 0 tenants in
  let worst = ref 0.0 in
  List.iter
    (fun (site, declared) ->
      let measured = float_of_int (ok_of site) /. float_of_int (max 1 total_ok) in
      let rel_err = Float.abs (measured -. declared) /. declared in
      worst := Float.max !worst rel_err;
      Printf.printf "  %-16s declared %4.0f%%  measured %5.1f%%  (%d ok, %d shed, err %4.1f%%)\n"
        site (100.0 *. declared) (100.0 *. measured) (ok_of site)
        (Option.value ~default:0 (Hashtbl.find_opt shed site))
        (100.0 *. rel_err);
      match Harness.registry () with
      | None -> ()
      | Some m ->
        Metrics.set_gauge m (Printf.sprintf "provision.%s.declared" site) declared;
        Metrics.set_gauge m (Printf.sprintf "provision.%s.measured" site) measured)
    tenants;
  Printf.printf "  worst relative error: %.1f%% %s\n" (100.0 *. !worst)
    (if !worst <= 0.10 then "(<= 10%: pass)" else "(ABOVE TARGET)");
  match Harness.registry () with
  | None -> ()
  | Some m ->
    Metrics.set_gauge m "provision.total-ok" (float_of_int total_ok);
    Metrics.set_gauge m "provision.worst-relative-error" !worst
