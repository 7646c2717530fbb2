(* §6 (X1): content integrity. Static content: hash + signature
   round-trips and tamper detection through a misbehaving cache.
   Processed content: the probabilistic verification model — clients
   sample a fraction of responses for re-execution on another proxy;
   tampering nodes are reported and evicted. *)

let static_integrity () =
  Harness.section "static content: X-Content-SHA256 / X-Signature";
  let key = "publisher-signing-key" in
  let make_signed body =
    let resp =
      Core.Http.Message.response
        ~headers:
          [ ("Content-Type", "text/html"); ("Expires", Core.Http.Http_date.format 5000.0) ]
        ~body ()
    in
    (match Core.Integrity.Integrity.sign ~key resp with
     | Ok () -> ()
     | Error v -> failwith (Core.Integrity.Integrity.violation_to_string v));
    resp
  in
  let n = 1000 in
  let ok = ref 0 and caught = ref 0 in
  let rng = Core.Util.Prng.create 77 in
  for i = 0 to n - 1 do
    let resp = make_signed (Printf.sprintf "<html>medical study %d</html>" i) in
    (* A third of the copies pass through a node that falsifies them. *)
    let tampered = i mod 3 = 0 in
    if tampered then
      Core.Http.Message.set_body resp
        (Printf.sprintf "<html>falsified study %d</html>" (Core.Util.Prng.int rng 1000));
    match Core.Integrity.Integrity.verify ~key ~now:100.0 resp with
    | Ok () -> if not tampered then incr ok else failwith "tampering missed!"
    | Error _ -> if tampered then incr caught else failwith "false positive!"
  done;
  Printf.printf "  %d objects: %d verified clean, %d falsifications caught, 0 misses\n" n !ok
    !caught;
  (* Freshness: a node may not serve content past its signed Expires. *)
  let stale = make_signed "<html>old</html>" in
  Printf.printf "  stale copy rejected after signed Expires: %b\n"
    (Core.Integrity.Integrity.verify ~key ~now:6000.0 stale = Error Core.Integrity.Integrity.Stale)

let probabilistic_verification () =
  Harness.section "processed content: probabilistic re-execution";
  List.iter
    (fun fraction ->
      let verifier = Core.Integrity.Verifier.create ~sample_fraction:fraction in
      Core.Integrity.Verifier.register_node verifier "honest";
      Core.Integrity.Verifier.register_node verifier "tamperer";
      let rng = Core.Util.Prng.create 13 in
      let observations = ref 0 in
      while Core.Integrity.Verifier.is_member verifier "tamperer" && !observations < 100_000 do
        incr observations;
        (* every response: the honest node's re-execution matches ... *)
        if Core.Integrity.Verifier.should_sample verifier ~rng then begin
          ignore
            (Core.Integrity.Verifier.check verifier ~node:"honest" ~original:"page"
               ~reexecuted:"page");
          (* ... the tamperer's never does. *)
          ignore
            (Core.Integrity.Verifier.check verifier ~node:"tamperer" ~original:"page"
               ~reexecuted:"defaced page")
        end
      done;
      Printf.printf
        "  sampling %4.1f%%: tamperer evicted after %6d responses (expected ~%.0f); honest node untouched: %b\n"
        (100.0 *. fraction) !observations
        (3.0 /. fraction)
        (Core.Integrity.Verifier.is_member verifier "honest"))
    [ 0.01; 0.05; 0.20 ]

let integrity () =
  Harness.header "Content integrity (§6)";
  static_integrity ();
  probabilistic_verification ()
