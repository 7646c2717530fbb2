(* SHA-256 / HMAC-SHA256 against published test vectors, plus
   incremental-update and property checks. *)

open Core.Crypto

let test_sha256_vectors () =
  (* FIPS 180-4 / NIST examples. *)
  List.iter
    (fun (input, expected) -> Alcotest.(check string) input expected (Sha256.digest_hex input))
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( "The quick brown fox jumps over the lazy dog",
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
    ]

let test_sha256_million_a () =
  (* The classic one-million-'a' vector, fed incrementally. *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  Alcotest.(check string) "1M x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let data = String.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let ctx = Sha256.init () in
  (* Uneven chunk sizes crossing block boundaries. *)
  let sizes = [ 1; 63; 64; 65; 127; 128; 1000; 8552 ] in
  let pos = ref 0 in
  List.iter
    (fun n ->
      Sha256.update ctx (String.sub data !pos n);
      pos := !pos + n)
    sizes;
  Alcotest.(check string) "incremental = one-shot" (Sha256.digest data)
    (Sha256.finalize ctx)

let test_sha256_block_boundaries () =
  (* Lengths straddling the 55/56/64-byte padding edge cases. *)
  List.iter
    (fun n ->
      let s = String.make n 'x' in
      Alcotest.(check int) (Printf.sprintf "len %d digest size" n) 32
        (String.length (Sha256.digest s)))
    [ 0; 1; 55; 56; 57; 63; 64; 65; 119; 120; 128 ]

let sha256_distinct_prop =
  QCheck.Test.make ~name:"sha256: distinct inputs yield distinct digests" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)))
    (fun (a, b) -> a = b || Sha256.digest a <> Sha256.digest b)

let test_hex () =
  Alcotest.(check string) "hex" "00ff10" (Sha256.hex "\x00\xff\x10")

(* [Sha256.hex] writes digits from a table; the Printf form is the
   specification. *)
let hex_reference_prop =
  QCheck.Test.make ~name:"hex: matches the Printf reference" ~count:300
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s ->
      let buf = Buffer.create (2 * String.length s) in
      String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
      Sha256.hex s = Buffer.contents buf)

let test_hmac_rfc4231 () =
  (* RFC 4231 test cases 1, 2 and the long-key case 6. *)
  Alcotest.(check string) "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hmac.mac_hex ~key:(String.make 20 '\x0b') "Hi There");
  Alcotest.(check string) "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hmac.mac_hex ~key:"Jefe" "what do ya want for nothing?");
  Alcotest.(check string) "case 6 (131-byte key)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (Hmac.mac_hex ~key:(String.make 131 '\xaa') "Test Using Larger Than Block-Size Key - Hash Key First")

let hmac_key_sensitivity_prop =
  QCheck.Test.make ~name:"hmac: different keys give different macs" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 64)) (string_of_size Gen.(1 -- 64)))
    (fun (k1, k2) ->
      k1 = k2 || Hmac.mac_hex ~key:k1 "fixed message" <> Hmac.mac_hex ~key:k2 "fixed message")

(* --- native-int SHA-256 against the int32 reference ----------------------- *)

(* A message of 0-3,000 bytes, fed to [update] in random pieces. *)
let sha256_matches_reference_prop =
  QCheck.Test.make ~name:"sha256: native-int digest matches the int32 reference" ~count:500
    QCheck.(
      make
        ~print:Print.(pair (fun s -> Printf.sprintf "%d bytes" (String.length s)) (list int))
        Gen.(
          pair
            (string_size ~gen:char (int_range 0 3000))
            (list_size (int_bound 6) (int_bound 3000))))
    (fun (msg, cuts) ->
      let n = String.length msg in
      let cuts = List.sort_uniq compare (List.map (fun c -> min c n) cuts) in
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun pos cut ->
            Sha256.update ctx (String.sub msg pos (cut - pos));
            cut)
          0 cuts
      in
      Sha256.update ctx (String.sub msg last (n - last));
      let expected = Reference_sha256.digest msg in
      Sha256.finalize ctx = expected && Sha256.digest msg = expected)

let test_sha256_every_length () =
  let data = String.init 3000 (fun i -> Char.chr ((i * 131) land 255)) in
  for n = 0 to 3000 do
    let msg = String.sub data 0 n in
    if Sha256.digest msg <> Reference_sha256.digest msg then
      Alcotest.failf "length %d differs from the int32 reference" n
  done

(* The schedule and state live in the context and full blocks are read
   in place, so a digest allocates the same words whatever the length. *)
let test_sha256_allocation_constant () =
  let allocated s = snd (Alloc.gc_allocated (fun () -> ignore (Sha256.digest s))) in
  let empty = allocated "" in
  Alcotest.(check (float 0.0)) "64 KB allocates what the empty string does" empty
    (allocated (String.make 65536 'x'))

let suite =
  [
    Alcotest.test_case "sha256: NIST vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256: one million a's (incremental)" `Slow test_sha256_million_a;
    Alcotest.test_case "sha256: incremental equals one-shot" `Quick
      test_sha256_incremental_equals_oneshot;
    Alcotest.test_case "sha256: padding boundary lengths" `Quick test_sha256_block_boundaries;
    QCheck_alcotest.to_alcotest sha256_distinct_prop;
    Alcotest.test_case "hex encoding" `Quick test_hex;
    Alcotest.test_case "hmac: RFC 4231 vectors" `Quick test_hmac_rfc4231;
    QCheck_alcotest.to_alcotest hmac_key_sensitivity_prop;
    QCheck_alcotest.to_alcotest hex_reference_prop;
    QCheck_alcotest.to_alcotest sha256_matches_reference_prop;
    Alcotest.test_case "sha256: allocation independent of length" `Quick
      test_sha256_allocation_constant;
    Alcotest.test_case "sha256: every length 0-3,000 matches the int32 reference" `Quick
      test_sha256_every_length;
  ]
