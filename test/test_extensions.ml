(* The §5.4 extension scripts as a regression suite (the bench also
   exercises them; these pin their behaviour). *)

open Core.Workload

let eval_stage ?(host = Core.Vocab.Hostcall.stub ()) source =
  match Core.Pipeline.Stage.of_script ~url:"http://x.org/ext.js" ~host ~source () with
  | Ok stage -> stage
  | Error e -> Alcotest.failf "stage: %s" e

let test_loc_counter () =
  Alcotest.(check int) "empty" 0 (Extensions.loc "");
  Alcotest.(check int) "blank lines skipped" 2 (Extensions.loc "a\n\n  \nb\n");
  List.iter
    (fun (name, source, _) ->
      Alcotest.(check bool) (name ^ " nonempty") true (Extensions.loc source > 5))
    Extensions.all

let test_all_extensions_evaluate () =
  List.iter
    (fun (name, source, _) ->
      let stage = eval_stage source in
      Alcotest.(check bool) (name ^ " registers policies") true
        (List.length (Core.Pipeline.Stage.policies stage) >= 1))
    Extensions.all

let test_transcoding_policy_targets_phones () =
  let stage = eval_stage Extensions.image_transcoding in
  let req headers =
    Core.Http.Message.request ~headers "http://photos.example.org/p.jpg"
  in
  Alcotest.(check bool) "Nokia matches" true
    (Core.Pipeline.Stage.select stage (req [ ("User-Agent", "Nokia6600") ]) <> None);
  Alcotest.(check bool) "desktop does not" true
    (Core.Pipeline.Stage.select stage (req [ ("User-Agent", "Mozilla/5.0") ]) = None);
  Alcotest.(check bool) "no agent does not" true
    (Core.Pipeline.Stage.select stage (req []) = None)

let test_blacklist_generator_builds_policies () =
  (* The generator fetches a blacklist and evalScripts one blocking
     policy per entry plus a pass-through. *)
  let base = Core.Vocab.Hostcall.stub () in
  let host =
    { base with
      Core.Vocab.Hostcall.fetch =
        (fun _ ->
          Core.Http.Message.response
            ~headers:[ ("Content-Type", "text/plain") ]
            ~body:"warez.example.com\n\nphishing.example.net/login\n" ());
    }
  in
  let stage =
    eval_stage ~host (Extensions.blacklist_generator ~url:"http://p.org/blacklist.txt")
  in
  (* 2 entries + the pass-through. *)
  Alcotest.(check int) "three policies" 3 (List.length (Core.Pipeline.Stage.policies stage));
  let pick url = Core.Pipeline.Stage.select stage (Core.Http.Message.request url) in
  (match pick "http://warez.example.com/x" with
   | Some p -> Alcotest.(check bool) "blocker has onRequest" true (p.Core.Policy.Policy.on_request <> None)
   | None -> Alcotest.fail "no match for blocked site");
  (match pick "http://fine.example.org/x" with
   | Some p ->
     Alcotest.(check (list string)) "pass-through is the wildcard" [] p.Core.Policy.Policy.urls
   | None -> Alcotest.fail "pass-through should match")

let test_blacklist_generator_empty_list () =
  let base = Core.Vocab.Hostcall.stub () in
  let host =
    { base with
      Core.Vocab.Hostcall.fetch =
        (fun _ ->
          Core.Http.Message.response ~headers:[ ("Content-Type", "text/plain") ] ~body:"" ());
    }
  in
  let stage = eval_stage ~host (Extensions.blacklist_generator ~url:"http://p.org/bl.txt") in
  Alcotest.(check int) "only pass-through" 1 (List.length (Core.Pipeline.Stage.policies stage))

let test_blacklist_generator_fetch_failure_fails_open () =
  (* The stub host answers 502: nothing gets blocked, traffic passes. *)
  let stage = eval_stage (Extensions.blacklist_generator ~url:"http://p.org/bl.txt") in
  match Core.Pipeline.Stage.select stage (Core.Http.Message.request "http://any.org/") with
  | Some p -> Alcotest.(check bool) "pass-through" true (p.Core.Policy.Policy.urls = [])
  | None -> Alcotest.fail "expected pass-through"

let test_annotations_policies () =
  let stage =
    eval_stage (Extensions.annotations ~site:"notes.org" ~target_site:"simm.org")
  in
  let policies = Core.Pipeline.Stage.policies stage in
  Alcotest.(check int) "interposer + poster" 2 (List.length policies);
  (* The interposer schedules the original service after itself. *)
  let interposer = List.hd policies in
  Alcotest.(check (list string)) "nextStages" [ "http://simm.org/nakika.js" ]
    interposer.Core.Policy.Policy.next_stages;
  (* The poster is the more specific match for /annotate. *)
  match
    Core.Pipeline.Stage.select stage (Core.Http.Message.request "http://notes.org/annotate?t=x")
  with
  | Some p -> Alcotest.(check int) "poster wins" 1 p.Core.Policy.Policy.order
  | None -> Alcotest.fail "no match"

let test_nkp_source_is_the_pipeline_one () =
  let _, source, _ = List.find (fun (name, _, _) -> name = "Na Kika Pages") Extensions.all in
  Alcotest.(check string) "shared source" Core.Pipeline.Nkp.script source

let suite =
  [
    Alcotest.test_case "LoC counter" `Quick test_loc_counter;
    Alcotest.test_case "all extensions evaluate" `Quick test_all_extensions_evaluate;
    Alcotest.test_case "transcoding targets phone user-agents" `Quick
      test_transcoding_policy_targets_phones;
    Alcotest.test_case "blacklist generator builds blocking policies" `Quick
      test_blacklist_generator_builds_policies;
    Alcotest.test_case "blacklist generator with empty list" `Quick
      test_blacklist_generator_empty_list;
    Alcotest.test_case "blacklist generator fails open on fetch error" `Quick
      test_blacklist_generator_fetch_failure_fails_open;
    Alcotest.test_case "annotations policy structure" `Quick test_annotations_policies;
    Alcotest.test_case "nkp source shared with the pipeline" `Quick
      test_nkp_source_is_the_pipeline_one;
  ]
