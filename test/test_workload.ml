(* Workload generators: the micro-benchmark page, SIMMs, SPECweb, and
   the load drivers. *)

open Core.Workload
open Core.Http

let test_static_page_size () =
  Alcotest.(check int) "exactly 2096 bytes (Google home page)" 2096
    (String.length Static_page.page_body)

let test_pred_script_registers_n_policies () =
  let count_policies source =
    let ctx = Core.Script.Interp.create () in
    Core.Script.Builtins.install ctx;
    let registry = Core.Policy.Script_bridge.create_registry () in
    Core.Policy.Script_bridge.install registry ctx;
    ignore (Core.Script.Compile.run_string ctx source);
    List.length (Core.Policy.Script_bridge.policies registry)
  in
  Alcotest.(check int) "pred-0" 0
    (count_policies (Static_page.pred_script ~host:"h.org" ~n:0 ~matching:false));
  Alcotest.(check int) "pred-50" 50
    (count_policies (Static_page.pred_script ~host:"h.org" ~n:50 ~matching:false));
  Alcotest.(check int) "match-1" 1
    (count_policies (Static_page.pred_script ~host:"h.org" ~n:0 ~matching:true));
  Alcotest.(check int) "pred-10 + match" 11
    (count_policies (Static_page.pred_script ~host:"h.org" ~n:10 ~matching:true))

let test_pred_script_nonmatching () =
  let ctx = Core.Script.Interp.create () in
  Core.Script.Builtins.install ctx;
  let registry = Core.Policy.Script_bridge.create_registry () in
  Core.Policy.Script_bridge.install registry ctx;
  ignore
    (Core.Script.Compile.run_string ctx (Static_page.pred_script ~host:"h.org" ~n:20 ~matching:true));
  let policies = Core.Policy.Script_bridge.policies registry in
  let req = Message.request "http://h.org/index.html" in
  (* Exactly the matching policy applies; the 20 decoys never do. *)
  (match Core.Policy.Policy.closest_match policies req with
   | Some p -> Alcotest.(check int) "matching policy is the last" 20 p.Core.Policy.Policy.order
   | None -> Alcotest.fail "expected a match");
  let decoys = List.filter (fun p -> p.Core.Policy.Policy.order < 20) policies in
  List.iter
    (fun p ->
      Alcotest.(check bool) "decoy never matches" true
        (Core.Policy.Policy.closest_match [ p ] req = None))
    decoys

let test_simm_xml_well_formed () =
  (* The five modules deployed at NYU. *)
  for m = 1 to 5 do
    let xml = Simm.lecture_xml ~module_:m ~lecture:1 ~student:"s1" in
    match Core.Vocab.Xml.parse xml with
    | Ok node ->
      Alcotest.(check bool) "has sections" true
        (List.length (Core.Vocab.Xml.find_all node "section") >= 4)
    | Error e -> Alcotest.failf "module %d xml: %s" m e
  done

let test_simm_personalization () =
  let a = Simm.lecture_xml ~module_:1 ~lecture:1 ~student:"alice" in
  let b = Simm.lecture_xml ~module_:1 ~lecture:1 ~student:"bob" in
  Alcotest.(check bool) "differs by student" false (a = b);
  Alcotest.(check bool) "mentions student" true (Core.Util.Strutil.contains_sub a ~sub:"alice")

(* [Simm.lecture_xml] as it was written with Printf; the appending
   version must produce the same bytes. *)
let reference_lecture_xml ~module_ ~lecture ~student =
  let conditions =
    [| "appendicitis"; "cholecystitis"; "diverticulitis"; "pancreatitis"; "hernia" |]
  in
  let section_names =
    [| "presentation"; "workup"; "imaging"; "pathology"; "treatment"; "followup" |]
  in
  let buf = Buffer.create 8192 in
  let condition = conditions.((module_ - 1) mod Array.length conditions) in
  Buffer.add_string buf
    (Printf.sprintf "<lecture module=\"%d\" number=\"%d\" condition=\"%s\">" module_ lecture
       condition);
  Buffer.add_string buf
    (Printf.sprintf "<title>Module %d, Lecture %d: %s</title>" module_ lecture condition);
  Buffer.add_string buf (Printf.sprintf "<student>%s</student>" student);
  Array.iteri
    (fun si section ->
      Buffer.add_string buf (Printf.sprintf "<section name=\"%s\">" section);
      for para = 1 to 5 do
        Buffer.add_string buf
          (Printf.sprintf
             "<para>In the %s phase of %s (module %d, lecture %d, part %d.%d), the \
              clinical narrative continues with findings, annotated imaging studies, and \
              guidance tailored to the learner's progress through the curriculum. Review \
              the attached materials before proceeding to the assessment.</para>"
             section condition module_ lecture si para)
      done;
      Buffer.add_string buf (Printf.sprintf "<assessment section=\"%s\" questions=\"4\"/>" section);
      Buffer.add_string buf "</section>")
    section_names;
  Buffer.add_string buf "</lecture>";
  Buffer.contents buf

let test_simm_xml_matches_reference () =
  for module_ = 1 to 7 do
    for lecture = 1 to 25 do
      List.iter
        (fun student ->
          let expected = reference_lecture_xml ~module_ ~lecture ~student in
          Alcotest.(check string)
            (Printf.sprintf "m%d lec%d %S" module_ lecture student)
            expected
            (Simm.lecture_xml ~module_ ~lecture ~student))
        [ ""; "a<b"; "s1"; "student-159" ]
    done
  done

let test_simm_render_html () =
  let html = Simm.render_html ~module_:2 ~lecture:3 ~student:"s" in
  Alcotest.(check bool) "article" true
    (Core.Util.Strutil.contains_sub html ~sub:"<article class=\"lecture\">");
  Alcotest.(check bool) "html shell" true (Core.Util.Strutil.starts_with ~prefix:"<html>" html)

let test_simm_requests () =
  let rng = Core.Util.Prng.create 3 in
  let videos = ref 0 and lectures = ref 0 in
  for _ = 1 to 1000 do
    let r = Simm.make_request ~rng ~mode:Simm.Edge ~student:"s1" in
    Alcotest.(check string) "host" Simm.host r.Message.url.Url.host;
    if Simm.is_video r then incr videos else incr lectures
  done;
  (* 15% video nominal. *)
  Alcotest.(check bool) (Printf.sprintf "video share %d" !videos) true
    (!videos > 80 && !videos < 250);
  let edge = Simm.make_request ~rng ~mode:Simm.Edge ~student:"s1" in
  let single = Simm.make_request ~rng ~mode:Simm.Single_server ~student:"s1" in
  ignore edge;
  ignore single

let test_simm_mode_paths () =
  let rng = Core.Util.Prng.create 17 in
  let rec find_lecture mode =
    let r = Simm.make_request ~rng ~mode ~student:"stu" in
    if Simm.is_video r then find_lecture mode else r
  in
  let edge = find_lecture Simm.Edge in
  Alcotest.(check bool) "edge asks for xml" true
    (Core.Util.Strutil.starts_with ~prefix:"/content/" edge.Message.url.Url.path);
  let single = find_lecture Simm.Single_server in
  Alcotest.(check bool) "single-server asks for html" true
    (Core.Util.Strutil.starts_with ~prefix:"/rendered/" single.Message.url.Url.path)

(* SPECweb99's dynamic requests: the CGI (PHP mode) and Na Kika Pages
   paths; everything else is a static file. *)
let is_dynamic (req : Message.request) =
  let path = req.Message.url.Url.path in
  Core.Util.Strutil.starts_with ~prefix:"/cgi/" path
  || Core.Util.Strutil.starts_with ~prefix:"/nkp/" path

let test_specweb_mix () =
  let rng = Core.Util.Prng.create 5 in
  let dynamic = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    if is_dynamic (Specweb.make_request ~rng ~mode:Specweb.Php) then incr dynamic
  done;
  let share = float_of_int !dynamic /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "80%% dynamic (got %.2f)" share) true
    (share > 0.74 && share < 0.86)

let test_specweb_variants () =
  let rng = Core.Util.Prng.create 6 in
  let rec find_dynamic mode =
    let r = Specweb.make_request ~rng ~mode in
    if is_dynamic r then r else find_dynamic mode
  in
  let php = find_dynamic Specweb.Php in
  Alcotest.(check bool) "php hits /cgi/" true
    (Core.Util.Strutil.starts_with ~prefix:"/cgi/" php.Message.url.Url.path);
  let nk = find_dynamic Specweb.Nakika in
  Alcotest.(check bool) "nakika hits /nkp/" true
    (Core.Util.Strutil.starts_with ~prefix:"/nkp/" nk.Message.url.Url.path)

let test_driver_closed_loop () =
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"w.org" () in
  Core.Node.Origin.set_static origin ~path:"/p" ~max_age:300 "x";
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Core.Node.Cluster.add_client cluster ~name:"c" in
  let sim = Core.Node.Cluster.sim cluster in
  let responses = ref 0 in
  Driver.closed_loop cluster ~client ~proxy
    ~until:(Core.Sim.Sim.now sim +. 1.0)
    ~make_request:(fun _ -> Message.request "http://w.org/p")
    ~on_response:(fun _ _ resp elapsed ->
      Alcotest.(check int) "status" 200 resp.Message.status;
      Alcotest.(check bool) "latency positive" true (elapsed > 0.0);
      incr responses)
    ();
  Core.Node.Cluster.run cluster;
  Alcotest.(check bool) "many iterations" true (!responses > 10)

let test_driver_think_time_limits_rate () =
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"w.org" () in
  Core.Node.Origin.set_static origin ~path:"/p" ~max_age:300 "x";
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Core.Node.Cluster.add_client cluster ~name:"c" in
  let sim = Core.Node.Cluster.sim cluster in
  let responses = ref 0 in
  Driver.closed_loop cluster ~client ~proxy ~think:0.5
    ~until:(Core.Sim.Sim.now sim +. 5.0)
    ~make_request:(fun _ -> Message.request "http://w.org/p")
    ~on_response:(fun _ _ _ _ -> incr responses)
    ();
  Core.Node.Cluster.run cluster;
  Alcotest.(check bool) (Printf.sprintf "rate capped (%d)" !responses) true
    (!responses >= 8 && !responses <= 12)

(* The recorder's contract: every sent request is answered exactly
   once, the indices are 0 .. issued-1, and no answer reaches its
   client before the request left. *)
let check_recorder ~issued answers =
  Alcotest.(check (list int)) "each request answered once, indices 0..issued-1"
    (List.init issued Fun.id)
    (List.sort compare (List.map (fun a -> a.Driver.index) answers));
  List.iter
    (fun a -> Alcotest.(check bool) "received >= sent" true (a.Driver.received >= a.Driver.sent))
    answers

(* Each event goes out at its offset from now, without waiting for
   earlier answers: the open-loop log replay of §5.2. *)
let replay cluster ~client ~proxy events =
  let sim = Core.Node.Cluster.sim cluster in
  let recorder = Driver.recorder cluster in
  List.iter
    (fun (offset, req) ->
      Core.Sim.Sim.schedule sim ~delay:offset (fun () ->
          Driver.send recorder ~client ~proxy:(Some proxy) ~timeout:30.0 req))
    events;
  let answers = Driver.finish recorder ~until:(Core.Sim.Sim.now sim +. 120.0) in
  check_recorder ~issued:(Driver.issued recorder) answers;
  answers

let test_driver_replay () =
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"w.org" () in
  Core.Node.Origin.set_static origin ~path:"/p" ~max_age:300 "x";
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Core.Node.Cluster.add_client cluster ~name:"c" in
  let events = List.init 5 (fun i -> (float_of_int i *. 0.1, Message.request "http://w.org/p")) in
  Alcotest.(check int) "all replayed" 5 (List.length (replay cluster ~client ~proxy events))

let test_flashcrowd_scripts () =
  let r = Flashcrowd.good_request () in
  Alcotest.(check string) "good host" Flashcrowd.good_host r.Message.url.Url.host;
  let b = Flashcrowd.bomb_request () in
  Alcotest.(check string) "bomb host" Flashcrowd.bomb_host b.Message.url.Url.host


let clf_line = "128.122.1.1 - - [05/Jul/2006:14:30:00 +0000] \"GET /content/m1/lec1.xml?student=s1 HTTP/1.1\" 200 9417"

let test_logreplay_parse_line () =
  match Logreplay.parse_line clf_line with
  | Error e -> Alcotest.fail e
  | Ok entry ->
    Alcotest.(check string) "client" "128.122.1.1" (Core.Http.Ip.to_string entry.Logreplay.client);
    Alcotest.(check bool) "method" true
      (Core.Http.Method_.equal entry.Logreplay.meth Core.Http.Method_.GET);
    Alcotest.(check string) "path" "/content/m1/lec1.xml?student=s1" entry.Logreplay.path;
    Alcotest.(check int) "status" 200 entry.Logreplay.status;
    Alcotest.(check int) "bytes" 9417 entry.Logreplay.bytes;
    (* 05 Jul 2006 14:30:00 UTC *)
    Alcotest.(check (float 0.5)) "time" 1152109800.0 entry.Logreplay.time

let test_logreplay_timezone () =
  let line tz = Printf.sprintf
    "1.2.3.4 - - [05/Jul/2006:14:30:00 %s] \"GET / HTTP/1.1\" 200 1" tz in
  let t_of tz =
    match Logreplay.parse_line (line tz) with
    | Ok e -> e.Logreplay.time
    | Error err -> Alcotest.fail err
  in
  (* 14:30 -0500 (US East Coast summer) is 19:30 UTC. *)
  Alcotest.(check (float 0.5)) "offset honored" (t_of "+0000" +. 5.0 *. 3600.0) (t_of "-0500")

let test_logreplay_malformed () =
  List.iter
    (fun line ->
      match Logreplay.parse_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected failure for %S" line)
    [ ""; "no fields"; "1.2.3.4 - - not-a-time \"GET / HTTP/1.1\" 200 1";
      "1.2.3.4 - - [05/Jul/2006:14:30:00 +0000] no-request 200 1" ]

let test_logreplay_to_events () =
  let log = String.concat "\n"
    [ "1.1.1.1 - - [05/Jul/2006:10:00:00 +0000] \"GET /a HTTP/1.1\" 200 10";
      "garbage line";
      "2.2.2.2 - - [05/Jul/2006:10:00:08 +0000] \"GET /b HTTP/1.1\" 200 20" ] in
  let entries, errors = Logreplay.parse_log log in
  Alcotest.(check int) "entries" 2 (List.length entries);
  Alcotest.(check int) "errors" 1 errors;
  let events = Logreplay.to_events ~host:"site.org" ~accelerate:4.0 entries in
  (match events with
   | [ (t1, r1); (t2, r2) ] ->
     Alcotest.(check (float 1e-6)) "first at 0" 0.0 t1;
     Alcotest.(check (float 1e-6)) "8s accelerated 4x" 2.0 t2;
     Alcotest.(check string) "host attached" "site.org" r1.Message.url.Url.host;
     Alcotest.(check string) "path" "/b" r2.Core.Http.Message.url.Core.Http.Url.path;
     Alcotest.(check string) "client carried" "1.1.1.1"
       (Core.Http.Ip.to_string r1.Core.Http.Message.client.Core.Http.Ip.ip)
   | _ -> Alcotest.fail "expected two events")

let test_logreplay_synthesize_parses () =
  let rng = Core.Util.Prng.create 4 in
  let log =
    Logreplay.synthesize ~rng ~start:1152109800.0 ~duration:30.0 ~clients:5
      ~paths:[| "/a.html"; "/b.html" |]
  in
  let entries, errors = Logreplay.parse_log log in
  Alcotest.(check int) "clean" 0 errors;
  Alcotest.(check bool) "plenty of entries" true (List.length entries > 20);
  (* Sorted by time. *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Logreplay.time <= b.Logreplay.time && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted entries)

let test_logreplay_drives_cluster () =
  (* End to end: synthesize a log, replay it through a proxy. *)
  let cluster = Core.Node.Cluster.create () in
  let origin = Core.Node.Cluster.add_origin cluster ~name:"site.org" () in
  Core.Node.Origin.set_static origin ~path:"/a.html" ~max_age:300 "A";
  Core.Node.Origin.set_static origin ~path:"/b.html" ~max_age:300 "B";
  let proxy = Core.Node.Cluster.add_proxy cluster ~name:"nk1.nakika.net" () in
  let client = Core.Node.Cluster.add_client cluster ~name:"c" in
  let rng = Core.Util.Prng.create 4 in
  let log =
    Logreplay.synthesize ~rng ~start:1152109800.0 ~duration:20.0 ~clients:3
      ~paths:[| "/a.html"; "/b.html" |]
  in
  let entries, _ = Logreplay.parse_log log in
  let events = Logreplay.to_events ~host:"site.org" ~accelerate:4.0 entries in
  let answers = replay cluster ~client ~proxy events in
  Alcotest.(check int) "all served" (List.length events)
    (List.length (List.filter (fun a -> a.Driver.response.Message.status = 200) answers))

(* {1 Zipf sampler properties}

   The alias table is the planet-scale workload's engine; these pin
   (a) the construction invariant, (b) seed determinism, and (c) that
   the empirical rank frequencies actually track r^-s. *)

(* The exact normalized pmf, (r+1)^-s over its sum: the oracle the
   sampler's alias table is built from. *)
let pmf ~s ~universe =
  let weights = Array.init universe (fun i -> float_of_int (i + 1) ** -.s) in
  let total = Array.fold_left ( +. ) 0. weights in
  Array.map (fun w -> w /. total) weights

let zipf_alias_invariant_prop =
  (* The alias table redistributes mass but must conserve it: the
     implied probability of each rank — its own slot's acceptance mass
     plus every slot that aliases to it — equals the exact pmf. *)
  QCheck.Test.make ~name:"zipf: alias table conserves per-rank probability" ~count:100
    QCheck.(pair (float_range 0.0 2.0) (int_range 1 300))
    (fun (s, universe) ->
      let z = Zipf.create ~s ~universe in
      let prob, alias = Zipf.table z in
      let pmf = pmf ~s ~universe in
      let n = float_of_int universe in
      let implied = Array.make universe 0.0 in
      Array.iteri
        (fun i p ->
          implied.(i) <- implied.(i) +. (p /. n);
          if p < 1.0 then implied.(alias.(i)) <- implied.(alias.(i)) +. ((1.0 -. p) /. n))
        prob;
      let ok = ref true in
      for r = 0 to universe - 1 do
        if abs_float (implied.(r) -. pmf.(r)) > 1e-9 then ok := false
      done;
      !ok)

let zipf_deterministic_prop =
  QCheck.Test.make ~name:"zipf: same seed, bit-identical sample stream" ~count:50
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, universe) ->
      let z = Zipf.create ~s:0.9 ~universe in
      let draw () =
        let rng = Core.Util.Prng.create seed in
        List.init 500 (fun _ -> Zipf.sample z rng)
      in
      draw () = draw ())

let zipf_frequency_tracks_power_law () =
  (* Empirical frequency of rank r tracks r^-s within tolerance for
     several (s, universe) pairs. Only ranks with enough expected mass
     are held to the relative bound (tail ranks get a handful of
     draws; their relative error is meaningless). *)
  List.iter
    (fun (s, universe, seed) ->
      let z = Zipf.create ~s ~universe in
      let pmf = pmf ~s ~universe in
      let rng = Core.Util.Prng.create seed in
      let draws = 100_000 in
      let counts = Array.make universe 0 in
      for _ = 1 to draws do
        let r = Zipf.sample z rng in
        counts.(r) <- counts.(r) + 1
      done;
      for r = 0 to universe - 1 do
        let expected = pmf.(r) *. float_of_int draws in
        if expected >= 500.0 then begin
          let got = float_of_int counts.(r) in
          let rel = abs_float (got -. expected) /. expected in
          Alcotest.(check bool)
            (Printf.sprintf "s=%.1f u=%d rank %d: empirical %.0f vs expected %.0f (rel %.3f)"
               s universe r got expected rel)
            true (rel < 0.15)
        end
      done;
      (* Skew sanity: rank 0 strictly dominates rank 1 for s > 0. *)
      if s > 0.0 && universe > 1 then
        Alcotest.(check bool) "head dominates" true (counts.(0) > counts.(1)))
    [ (0.7, 50, 42); (0.9, 100, 7); (1.2, 20, 11) ]

let test_zipf_edges () =
  (* Uniform when s = 0; single-rank universes always sample 0;
     invalid parameters rejected. *)
  let z = Zipf.create ~s:0.0 ~universe:4 in
  let prob, alias = Zipf.table z in
  Alcotest.(check (array (float 1e-9))) "uniform: every slot keeps its own rank"
    [| 1.0; 1.0; 1.0; 1.0 |] prob;
  Alcotest.(check (array int)) "no aliases" [| 0; 1; 2; 3 |] alias;
  let one = Zipf.create ~s:0.9 ~universe:1 in
  let rng = Core.Util.Prng.create 3 in
  for _ = 1 to 20 do
    Alcotest.(check int) "only rank" 0 (Zipf.sample one rng)
  done;
  Alcotest.check_raises "universe 0" (Invalid_argument "Zipf.create: universe must be positive")
    (fun () -> ignore (Zipf.create ~s:0.9 ~universe:0));
  Alcotest.check_raises "negative skew" (Invalid_argument "Zipf.create: skew must be non-negative")
    (fun () -> ignore (Zipf.create ~s:(-0.1) ~universe:4))

(* The Zipf crowd at the capacity curve's seeds (cluster 4242, stream
   9001, 1200 req/s, replication on) at 10 nodes, with its answer
   digest formed as the determinism soak forms it. The digest is
   pinned, so a change to the schedule, the draw order or the recorder
   fails under `dune runtest`, not only in the soak. *)
let test_crowd_digest () =
  let { Crowd.cluster; clients; _ } = Crowd.fleet ~nodes:10 ~universe:10_000 ~hotspots:true in
  let issued, answers =
    Crowd.run cluster ~universe:10_000 ~requests:2000 ~rate:1200.0 ~slack:15.0
      (Crowd.Fleet clients)
  in
  check_recorder ~issued answers;
  let status a = a.Driver.response.Message.status in
  let served = List.filter (fun a -> status a = 200) answers in
  Alcotest.(check string) "answer digest"
    "2000 ok=2000 latency_sum=23.145098209 \
     statuses=b20104a274fc4abfb20ee265ff8d921247a4a01572336a7b5313691f91a2c5b8"
    (Printf.sprintf "%d ok=%d latency_sum=%.9f statuses=%s" issued (List.length served)
       (List.fold_left (fun sum a -> sum +. (a.Driver.received -. a.Driver.sent)) 0.0 served)
       (Core.Crypto.Sha256.digest_hex
          (String.concat "" (List.map (fun a -> string_of_int (status a) ^ ";") answers))))

let suite =
  [
    Alcotest.test_case "static page is exactly 2096 bytes" `Quick test_static_page_size;
    Alcotest.test_case "pred-script registers n policies" `Quick
      test_pred_script_registers_n_policies;
    Alcotest.test_case "pred-script decoys never match" `Quick test_pred_script_nonmatching;
    Alcotest.test_case "simm: xml is well-formed" `Quick test_simm_xml_well_formed;
    Alcotest.test_case "simm: personalization" `Quick test_simm_personalization;
    Alcotest.test_case "simm: stylesheet rendering" `Quick test_simm_render_html;
    Alcotest.test_case "simm: request mix" `Quick test_simm_requests;
    Alcotest.test_case "simm: mode selects origin path" `Quick test_simm_mode_paths;
    Alcotest.test_case "specweb: 80/20 dynamic mix" `Quick test_specweb_mix;
    Alcotest.test_case "specweb: php vs nakika variants" `Quick test_specweb_variants;
    Alcotest.test_case "driver: closed loop" `Quick test_driver_closed_loop;
    Alcotest.test_case "driver: think time caps rate" `Quick test_driver_think_time_limits_rate;
    Alcotest.test_case "driver: open-loop replay" `Quick test_driver_replay;
    Alcotest.test_case "flashcrowd fixtures" `Quick test_flashcrowd_scripts;
    Alcotest.test_case "logreplay: CLF line" `Quick test_logreplay_parse_line;
    Alcotest.test_case "logreplay: timezone offsets" `Quick test_logreplay_timezone;
    Alcotest.test_case "logreplay: malformed lines" `Quick test_logreplay_malformed;
    Alcotest.test_case "logreplay: events (4x acceleration)" `Quick test_logreplay_to_events;
    Alcotest.test_case "logreplay: synthesized logs parse back" `Quick
      test_logreplay_synthesize_parses;
    Alcotest.test_case "logreplay: drives a cluster" `Quick test_logreplay_drives_cluster;
    QCheck_alcotest.to_alcotest zipf_alias_invariant_prop;
    QCheck_alcotest.to_alcotest zipf_deterministic_prop;
    Alcotest.test_case "zipf: empirical frequencies track r^-s" `Quick
      zipf_frequency_tracks_power_law;
    Alcotest.test_case "zipf: edge cases" `Quick test_zipf_edges;
    Alcotest.test_case "simm: lecture xml matches the Printf reference" `Quick
      test_simm_xml_matches_reference;
    Alcotest.test_case "crowd: 10-node digest matches the capacity curve's loop" `Quick
      test_crowd_digest;
  ]
