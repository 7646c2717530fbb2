(* Policies, predicate semantics (§3.1), and the decision tree (§4) —
   including a QCheck equivalence proof between the tree and the
   brute-force reference matcher. *)

open Core.Policy
open Core.Http

let req ?(meth = Method_.GET) ?(client = "1.2.3.4") ?(hostname = None) ?(headers = []) url =
  Message.request ~meth ~headers
    ~client:{ Ip.ip = Ip.of_string_exn client; hostname }
    url


(* A policy with every predicate property, as a script's [register()]
   builds one: header patterns compile to regexes. *)
let policy ?(urls = []) ?(clients = []) ?(methods = []) ?(headers = []) ?(order = 0) () =
  {
    (Policy.make ~urls ~order) with
    Policy.clients;
    methods;
    headers = List.map (fun (name, pat) -> (name, Core.Regex.Regex.compile pat)) headers;
  }

let matches p request = Policy.closest_match [ p ] request <> None

let eval_policies src =
  let ctx = Core.Script.Interp.create () in
  Core.Script.Builtins.install ctx;
  let registry = Script_bridge.create_registry () in
  Script_bridge.install registry ctx;
  ignore (Core.Script.Compile.run_string ctx src);
  Script_bridge.policies registry

let test_empty_policy_matches_everything () =
  let p = policy () in
  Alcotest.(check bool) "wildcard" true (matches p (req "http://anything.org/x"))

let test_url_predicate () =
  let p = policy ~urls:[ "med.nyu.edu" ] () in
  Alcotest.(check bool) "match" true (matches p (req "http://med.nyu.edu/a"));
  Alcotest.(check bool) "subdomain" true
    (matches p (req "http://www.med.nyu.edu/a"));
  Alcotest.(check bool) "other host" true (not (matches p (req "http://pitt.edu/a")))

let test_url_disjunction () =
  (* Fig. 3: two URLs, either may match. *)
  let p = policy ~urls:[ "med.nyu.edu"; "medschool.pitt.edu" ] () in
  Alcotest.(check bool) "first" true (matches p (req "http://med.nyu.edu/"));
  Alcotest.(check bool) "second" true
    (matches p (req "http://medschool.pitt.edu/"));
  Alcotest.(check bool) "neither" true (not (matches p (req "http://mit.edu/")))

let test_property_conjunction () =
  (* Fig. 3: url AND client must both match. *)
  let p = policy ~urls:[ "med.nyu.edu" ] ~clients:[ "10.0.0.0/8" ] () in
  Alcotest.(check bool) "both match" true
    (matches p (req ~client:"10.1.1.1" "http://med.nyu.edu/"));
  Alcotest.(check bool) "client fails" true
    (not (matches p (req ~client:"11.1.1.1" "http://med.nyu.edu/")));
  Alcotest.(check bool) "url fails" true
    (not (matches p (req ~client:"10.1.1.1" "http://other.org/")))

let test_method_predicate () =
  let p = policy ~methods:[ "POST"; "PUT" ] () in
  Alcotest.(check bool) "post" true (matches p (req ~meth:Method_.POST "http://a.org/"));
  Alcotest.(check bool) "get" true (not (matches p (req "http://a.org/")))

let test_header_predicate () =
  let p = policy ~headers:[ ("User-Agent", "Nokia") ] () in
  Alcotest.(check bool) "match" true
    (matches p (req ~headers:[ ("User-Agent", "Nokia6600/2.0") ] "http://a.org/"));
  Alcotest.(check bool) "different agent" true
    (not (matches p (req ~headers:[ ("User-Agent", "Mozilla") ] "http://a.org/")));
  Alcotest.(check bool) "absent header" true (not (matches p (req "http://a.org/")))

let test_header_predicate_step_bound () =
  (* A client header is matched outside any script: a catastrophic
     backtracking pattern gives up at the step bound and counts as no
     match, instead of running for seconds. *)
  let p = policy ~headers:[ ("User-Agent", "(a*)*b") ] () in
  let r = req ~headers:[ ("User-Agent", String.make 26 'a') ] "http://a.org/" in
  let t0 = Sys.time () in
  Alcotest.(check bool) "no match" true (not (matches p r));
  Alcotest.(check bool) "stopped at the step bound" true (Sys.time () -. t0 < 0.5)

let test_header_conjunction () =
  let p = policy ~headers:[ ("A", "1"); ("B", "2") ] () in
  Alcotest.(check bool) "both" true
    (matches p (req ~headers:[ ("A", "x1x"); ("B", "y2y") ] "http://a.org/"));
  Alcotest.(check bool) "one missing" true
    (not (matches p (req ~headers:[ ("A", "1") ] "http://a.org/")))

let test_client_hostname_predicate () =
  (* Fig. 3's client lists are domain names. *)
  let p = policy ~clients:[ "nyu.edu"; "pitt.edu" ] () in
  Alcotest.(check bool) "nyu client" true
    (matches p (req ~hostname:(Some "dialup.cs.nyu.edu") "http://a.org/"));
  Alcotest.(check bool) "unknown client" true
    (not (matches p (req ~hostname:(Some "example.com") "http://a.org/")))

let test_closest_match_url_specificity () =
  let general = policy ~urls:[ "nyu.edu" ] ~order:0 () in
  let specific = policy ~urls:[ "med.nyu.edu/library" ] ~order:1 () in
  let chosen =
    Policy.closest_match [ general; specific ] (req "http://med.nyu.edu/library/x")
  in
  Alcotest.(check (option int)) "specific wins" (Some 1)
    (Option.map (fun p -> p.Policy.order) chosen);
  let chosen2 = Policy.closest_match [ general; specific ] (req "http://med.nyu.edu/other") in
  Alcotest.(check (option int)) "general for other path" (Some 0)
    (Option.map (fun p -> p.Policy.order) chosen2)

let test_precedence_url_over_client () =
  (* URL specificity takes precedence over client specificity. *)
  let url_specific = policy ~urls:[ "a.org/path" ] ~order:0 () in
  let client_specific =
    policy ~urls:[ "a.org" ] ~clients:[ "1.2.3.4" ] ~order:1 ()
  in
  let chosen =
    Policy.closest_match [ url_specific; client_specific ]
      (req ~client:"1.2.3.4" "http://a.org/path/x")
  in
  Alcotest.(check (option int)) "url precedence" (Some 0)
    (Option.map (fun p -> p.Policy.order) chosen)

let test_ties_go_to_later_registration () =
  let p0 = policy ~urls:[ "a.org" ] ~order:0 () in
  let p1 = policy ~urls:[ "a.org" ] ~order:1 () in
  let chosen = Policy.closest_match [ p0; p1 ] (req "http://a.org/") in
  Alcotest.(check (option int)) "later registration" (Some 1)
    (Option.map (fun p -> p.Policy.order) chosen)

let test_no_match () =
  let p = policy ~urls:[ "only.example.org" ] () in
  Alcotest.(check bool) "none" true (Policy.closest_match [ p ] (req "http://other.org/") = None)

let test_cidr_specificity () =
  let broad = policy ~clients:[ "10.0.0.0/8" ] ~order:0 () in
  let narrow = policy ~clients:[ "10.1.0.0/16" ] ~order:1 () in
  let chosen = Policy.closest_match [ broad; narrow ] (req ~client:"10.1.2.3" "http://a.org/") in
  Alcotest.(check (option int)) "narrow CIDR wins" (Some 1)
    (Option.map (fun p -> p.Policy.order) chosen)

let test_bad_header_regex_rejected () =
  match eval_policies {| p = new Policy(); p.headers = { "A": "(unclosed" }; p.register(); |} with
  | exception Core.Script.Value.Script_error _ -> ()
  | _ -> Alcotest.fail "expected regex parse error"

(* --- decision tree ---------------------------------------------------- *)

let tree_find policies request =
  Decision_tree.find_closest (Decision_tree.build policies) request

let test_tree_basic () =
  let p = policy ~urls:[ "med.nyu.edu" ] () in
  Alcotest.(check bool) "hit" true (tree_find [ p ] (req "http://med.nyu.edu/x") <> None);
  Alcotest.(check bool) "miss" true (tree_find [ p ] (req "http://mit.edu/x") = None)

let test_tree_wildcard_reachable () =
  let wild = policy ~order:0 () in
  Alcotest.(check bool) "wildcard found from any host" true
    (tree_find [ wild ] (req "http://whatever.example/x") <> None)

let test_tree_subdomain () =
  let p = policy ~urls:[ "nyu.edu" ] () in
  Alcotest.(check bool) "deep subdomain" true
    (tree_find [ p ] (req "http://a.b.c.nyu.edu/x") <> None)

let test_tree_many_policies () =
  let policies =
    List.init 200 (fun i -> policy ~urls:[ Printf.sprintf "site%d.org" i ] ~order:i ())
  in
  let t = Decision_tree.build policies in
  Alcotest.(check (list (option int))) "each of the 200 policies found"
    (List.init 200 Option.some)
    (List.init 200 (fun i ->
         Decision_tree.find_closest t (req (Printf.sprintf "http://site%d.org/x" i))
         |> Option.map (fun p -> p.Policy.order)))

(* Random policy/request generators for the equivalence property. *)
let hosts = [| "a.org"; "b.a.org"; "c.org"; "d.c.org"; "e.net" |]

let gen_policy =
  QCheck.Gen.(
    let* n_urls = int_bound 2 in
    let* urls = list_size (return n_urls) (oneofl (Array.to_list hosts)) in
    let* use_client = bool in
    let clients = if use_client then [ "10.0.0.0/8" ] else [] in
    let* use_method = bool in
    let methods = if use_method then [ "GET" ] else [] in
    return (urls, clients, methods))

let gen_request =
  QCheck.Gen.(
    let* host = oneofl (Array.to_list hosts) in
    let* local = bool in
    let client = if local then "10.1.1.1" else "192.168.0.1" in
    let* post = bool in
    return (host, client, post))

let tree_equivalence_prop =
  QCheck.Test.make ~name:"decision tree selects the same policy as brute force" ~count:300
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_bound 12) gen_policy) gen_request))
    (fun (policy_specs, (host, client, post)) ->
      let policies =
        List.mapi
          (fun i (urls, clients, methods) -> policy ~urls ~clients ~methods ~order:i ())
          policy_specs
      in
      let request =
        req ~client
          ~meth:(if post then Method_.POST else Method_.GET)
          (Printf.sprintf "http://%s/path" host)
      in
      let reference = Policy.closest_match policies request in
      let via_tree = tree_find policies request in
      Option.map (fun p -> p.Policy.order) reference
      = Option.map (fun p -> p.Policy.order) via_tree)

(* --- script bridge ----------------------------------------------------- *)

let test_bridge_figure3 () =
  let policies =
    eval_policies
      {|
p = new Policy();
p.url = [ "med.nyu.edu", "medschool.pitt.edu" ];
p.client = [ "nyu.edu", "pitt.edu" ];
p.onResponse = function() { };
p.register();
|}
  in
  match policies with
  | [ p ] ->
    Alcotest.(check (list string)) "urls" [ "med.nyu.edu"; "medschool.pitt.edu" ] p.Policy.urls;
    Alcotest.(check (list string)) "clients" [ "nyu.edu"; "pitt.edu" ] p.Policy.clients;
    Alcotest.(check bool) "onResponse" true (p.Policy.on_response <> None);
    Alcotest.(check bool) "onRequest null" true (p.Policy.on_request = None)
  | ps -> Alcotest.failf "expected 1 policy, got %d" (List.length ps)

let test_bridge_registration_order () =
  let policies =
    eval_policies
      {|
var a = new Policy(); a.url = ["a.org"]; a.register();
var b = new Policy(); b.url = ["b.org"]; b.register();
var c = new Policy(); c.url = ["c.org"]; c.register();
|}
  in
  Alcotest.(check (list int)) "orders" [ 0; 1; 2 ]
    (List.map (fun p -> p.Policy.order) policies)

let test_bridge_next_stages () =
  let policies =
    eval_policies
      {|
p = new Policy();
p.nextStages = ["http://nakika.net/nkp.js", "http://svc.org/extra.js"];
p.register();
|}
  in
  match policies with
  | [ p ] ->
    Alcotest.(check (list string)) "stages"
      [ "http://nakika.net/nkp.js"; "http://svc.org/extra.js" ]
      p.Policy.next_stages
  | _ -> Alcotest.fail "expected 1 policy"

let test_bridge_headers () =
  let policies =
    eval_policies
      {|
p = new Policy();
p.headers = { "User-Agent": "Nokia" };
p.register();
|}
  in
  match policies with
  | [ p ] ->
    Alcotest.(check int) "one header" 1 (List.length p.Policy.headers);
    Alcotest.(check bool) "matches" true
      (matches p (req ~headers:[ ("User-Agent", "a Nokia phone") ] "http://x.org/"))
  | _ -> Alcotest.fail "expected 1 policy"

let test_bridge_rejects_bad_handler () =
  match eval_policies {| p = new Policy(); p.onRequest = 42; p.register(); |} with
  | exception Core.Script.Value.Script_error _ -> ()
  | _ -> Alcotest.fail "expected error for non-function handler"

let test_bridge_unregistered_ignored () =
  let policies = eval_policies {| p = new Policy(); p.url = ["a.org"]; |} in
  Alcotest.(check int) "nothing registered" 0 (List.length policies)

let suite =
  [
    Alcotest.test_case "null properties are truth values" `Quick
      test_empty_policy_matches_everything;
    Alcotest.test_case "url predicate" `Quick test_url_predicate;
    Alcotest.test_case "url list is a disjunction" `Quick test_url_disjunction;
    Alcotest.test_case "properties are a conjunction" `Quick test_property_conjunction;
    Alcotest.test_case "method predicate" `Quick test_method_predicate;
    Alcotest.test_case "header regex predicate" `Quick test_header_predicate;
    Alcotest.test_case "multiple headers conjoin" `Quick test_header_conjunction;
    Alcotest.test_case "client domain predicate (Fig. 3)" `Quick
      test_client_hostname_predicate;
    Alcotest.test_case "closest match: url specificity" `Quick
      test_closest_match_url_specificity;
    Alcotest.test_case "precedence: url over client" `Quick test_precedence_url_over_client;
    Alcotest.test_case "ties: later registration wins" `Quick
      test_ties_go_to_later_registration;
    Alcotest.test_case "no valid match" `Quick test_no_match;
    Alcotest.test_case "CIDR specificity" `Quick test_cidr_specificity;
    Alcotest.test_case "bad header regex rejected at make" `Quick
      test_bad_header_regex_rejected;
    Alcotest.test_case "tree: basic match" `Quick test_tree_basic;
    Alcotest.test_case "tree: wildcard policies reachable" `Quick test_tree_wildcard_reachable;
    Alcotest.test_case "tree: subdomain paths" `Quick test_tree_subdomain;
    Alcotest.test_case "tree: 200 sites" `Quick test_tree_many_policies;
    QCheck_alcotest.to_alcotest tree_equivalence_prop;
    Alcotest.test_case "bridge: Fig. 3 policy object" `Quick test_bridge_figure3;
    Alcotest.test_case "bridge: registration order" `Quick test_bridge_registration_order;
    Alcotest.test_case "bridge: nextStages" `Quick test_bridge_next_stages;
    Alcotest.test_case "bridge: header object" `Quick test_bridge_headers;
    Alcotest.test_case "bridge: non-function handler rejected" `Quick
      test_bridge_rejects_bad_handler;
    Alcotest.test_case "bridge: unregistered policies ignored" `Quick
      test_bridge_unregistered_ignored;
    Alcotest.test_case "header predicate stops at its step bound" `Quick
      test_header_predicate_step_bound;
  ]
