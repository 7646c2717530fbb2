(* Content integrity (§6): the X-Content-SHA256 / X-Signature headers
   and the probabilistic verification model. *)

open Core.Integrity
open Core.Http

let signed_response ?(body = "the content") ~expires_at () =
  let r =
    Message.response
      ~headers:
        [ ("Content-Type", "text/html"); ("Expires", Http_date.format expires_at) ]
      ~body ()
  in
  (match Integrity.sign ~key:"publisher-key" r with
   | Ok () -> ()
   | Error v -> Alcotest.failf "sign failed: %s" (Integrity.violation_to_string v));
  r

let test_sign_sets_headers () =
  let r = signed_response ~expires_at:1000.0 () in
  Alcotest.(check bool) "hash header" true (Message.resp_header r "X-Content-SHA256" <> None);
  Alcotest.(check bool) "signature header" true (Message.resp_header r "X-Signature" <> None)

let test_verify_accepts_fresh () =
  let r = signed_response ~expires_at:1000.0 () in
  Alcotest.(check bool) "ok" true (Integrity.verify ~key:"publisher-key" ~now:500.0 r = Ok ())

let test_verify_detects_tampered_body () =
  let r = signed_response ~expires_at:1000.0 () in
  Message.set_body r "falsified medical study results";
  Alcotest.(check bool) "hash mismatch" true
    (Integrity.verify ~key:"publisher-key" ~now:500.0 r = Error Integrity.Hash_mismatch)

let test_verify_detects_rehashed_body () =
  (* A smarter attacker recomputes the hash — the signature catches it. *)
  let r = signed_response ~expires_at:1000.0 () in
  Message.set_body r "falsified";
  Message.set_resp_header r "X-Content-SHA256" (Core.Crypto.Sha256.digest_hex "falsified");
  Alcotest.(check bool) "bad signature" true
    (Integrity.verify ~key:"publisher-key" ~now:500.0 r = Error Integrity.Bad_signature)

let test_verify_detects_extended_freshness () =
  (* A node may not extend a cached object's life: Expires is signed. *)
  let r = signed_response ~expires_at:1000.0 () in
  Message.set_resp_header r "Expires" (Http_date.format 999_999.0);
  Alcotest.(check bool) "freshness bound" true
    (Integrity.verify ~key:"publisher-key" ~now:500.0 r = Error Integrity.Bad_signature)

let test_verify_stale () =
  let r = signed_response ~expires_at:1000.0 () in
  Alcotest.(check bool) "stale" true
    (Integrity.verify ~key:"publisher-key" ~now:1001.0 r = Error Integrity.Stale)

let test_verify_wrong_key () =
  let r = signed_response ~expires_at:1000.0 () in
  Alcotest.(check bool) "wrong key" true
    (Integrity.verify ~key:"other" ~now:500.0 r = Error Integrity.Bad_signature)

let test_verify_missing_headers () =
  let r = signed_response ~expires_at:1000.0 () in
  Message.remove_resp_header r "X-Content-SHA256";
  Message.remove_resp_header r "X-Signature";
  Alcotest.(check bool) "missing" true
    (Integrity.verify ~key:"publisher-key" ~now:500.0 r = Error Integrity.Missing_headers)

let test_sign_requires_absolute_expiry () =
  (* §6: "absolute cache expiration times instead of the relative times
     introduced in HTTP/1.1". *)
  let relative =
    Message.response ~headers:[ ("Cache-Control", "max-age=300") ] ~body:"x" ()
  in
  Alcotest.(check bool) "max-age rejected" true
    (Integrity.sign ~key:"k" relative = Error Integrity.Relative_expiry);
  let none = Message.response ~body:"x" () in
  Alcotest.(check bool) "no Expires rejected" true
    (Integrity.sign ~key:"k" none = Error Integrity.Relative_expiry)

let sign_verify_roundtrip_prop =
  QCheck.Test.make ~name:"integrity: sign/verify roundtrip on arbitrary bodies" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_bound 500))
    (fun body ->
      let r =
        Message.response ~headers:[ ("Expires", Http_date.format 2000.0) ] ~body ()
      in
      Integrity.sign ~key:"k" r = Ok () && Integrity.verify ~key:"k" ~now:100.0 r = Ok ())

let tamper_detected_prop =
  QCheck.Test.make ~name:"integrity: any body change is detected" ~count:100
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 200)) (string_of_size (QCheck.Gen.int_range 1 200)))
    (fun (body, tampered) ->
      body = tampered
      ||
      let r = Message.response ~headers:[ ("Expires", Http_date.format 2000.0) ] ~body () in
      ignore (Integrity.sign ~key:"k" r);
      Message.set_body r tampered;
      Integrity.verify ~key:"k" ~now:100.0 r <> Ok ())

let test_verifier_match_no_report () =
  let v = Verifier.create ~sample_fraction:0.05 in
  Verifier.register_node v "nk1";
  Alcotest.(check bool) "match" true (Verifier.check v ~node:"nk1" ~original:"x" ~reexecuted:"x" = `Match);
  (* Had the match filed a report, the third mismatch below the
     threshold of 3 would not be the evicting one. *)
  for _ = 1 to 2 do
    ignore (Verifier.check v ~node:"nk1" ~original:"a" ~reexecuted:"b")
  done;
  Alcotest.(check bool) "no reports" true (Verifier.is_member v "nk1");
  ignore (Verifier.check v ~node:"nk1" ~original:"a" ~reexecuted:"b");
  Alcotest.(check bool) "third report evicts" false (Verifier.is_member v "nk1")

let test_verifier_eviction_threshold () =
  let v = Verifier.create ~sample_fraction:0.05 in
  Verifier.register_node v "cheat";
  for _ = 1 to 2 do
    ignore (Verifier.check v ~node:"cheat" ~original:"a" ~reexecuted:"b")
  done;
  Alcotest.(check bool) "still member" true (Verifier.is_member v "cheat");
  ignore (Verifier.check v ~node:"cheat" ~original:"a" ~reexecuted:"b");
  Alcotest.(check bool) "evicted" false (Verifier.is_member v "cheat");
  Alcotest.(check bool) "a report for a non-member is dropped" true
    (Verifier.check v ~node:"cheat" ~original:"a" ~reexecuted:"b" = `Mismatch_reported
     && not (Verifier.is_member v "cheat"))

let test_verifier_sampling_fraction () =
  let v = Verifier.create ~sample_fraction:0.2 in
  let rng = Core.Util.Prng.create 123 in
  let sampled = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Verifier.should_sample v ~rng then incr sampled
  done;
  let fraction = float_of_int !sampled /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "fraction %.3f near 0.2" fraction) true
    (fraction > 0.18 && fraction < 0.22)

let test_verifier_detection_probability () =
  (* A node that tampers with every response is caught after about
     threshold/fraction observations. *)
  let v = Verifier.create ~sample_fraction:0.1 in
  Verifier.register_node v "tamper";
  let rng = Core.Util.Prng.create 7 in
  let observations = ref 0 in
  while Verifier.is_member v "tamper" && !observations < 10_000 do
    incr observations;
    if Verifier.should_sample v ~rng then
      ignore (Verifier.check v ~node:"tamper" ~original:"good" ~reexecuted:"bad")
  done;
  Alcotest.(check bool) "eventually evicted" false (Verifier.is_member v "tamper");
  (* Expected ~30 observations; allow generous slack but require it is
     far from the 10k cap. *)
  Alcotest.(check bool)
    (Printf.sprintf "caught in %d observations" !observations)
    true (!observations < 500)

let test_verifier_bad_fraction () =
  Alcotest.check_raises "fraction > 1"
    (Invalid_argument "Verifier.create: sample_fraction out of [0,1]") (fun () ->
      ignore (Verifier.create ~sample_fraction:1.5))

let suite =
  [
    Alcotest.test_case "sign sets both headers" `Quick test_sign_sets_headers;
    Alcotest.test_case "verify accepts untampered fresh content" `Quick
      test_verify_accepts_fresh;
    Alcotest.test_case "tampered body detected" `Quick test_verify_detects_tampered_body;
    Alcotest.test_case "rehashed body caught by signature" `Quick
      test_verify_detects_rehashed_body;
    Alcotest.test_case "extended freshness caught" `Quick
      test_verify_detects_extended_freshness;
    Alcotest.test_case "stale content rejected" `Quick test_verify_stale;
    Alcotest.test_case "wrong key rejected" `Quick test_verify_wrong_key;
    Alcotest.test_case "stripped headers detected" `Quick test_verify_missing_headers;
    Alcotest.test_case "signing requires absolute Expires" `Quick
      test_sign_requires_absolute_expiry;
    QCheck_alcotest.to_alcotest sign_verify_roundtrip_prop;
    QCheck_alcotest.to_alcotest tamper_detected_prop;
    Alcotest.test_case "verifier: matches file no report" `Quick test_verifier_match_no_report;
    Alcotest.test_case "verifier: eviction threshold" `Quick test_verifier_eviction_threshold;
    Alcotest.test_case "verifier: sampling fraction" `Slow test_verifier_sampling_fraction;
    Alcotest.test_case "verifier: persistent tamperer is caught" `Quick
      test_verifier_detection_probability;
    Alcotest.test_case "verifier: rejects bad fraction" `Quick test_verifier_bad_fraction;
  ]
