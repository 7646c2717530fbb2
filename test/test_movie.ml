(* The NKV movie codec and the MovieTranscoder vocabulary (§3.1's
   anticipated movie-transcoding vocabulary). *)

open Core.Vocab

let clip = Movie.synthesize ~width:64 ~height:48 ~fps:24 ~seconds:2 ~seed:7

let test_encode_decode_roundtrip () =
  match Movie.decode (Movie.encode clip) with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "fps" 24 m.Movie.fps;
    Alcotest.(check int) "frames" 48 (List.length m.Movie.frames);
    Alcotest.(check (float 1e-9)) "duration" 2.0 (Movie.duration m);
    let f0 = List.hd m.Movie.frames and orig0 = List.hd clip.Movie.frames in
    Alcotest.(check bytes) "first frame lossless" orig0.Image.pixels f0.Image.pixels

let test_info_peek () =
  Alcotest.(check (option (pair (pair int int) (pair int int)))) "header" (Some ((48, 24), (64, 48)))
    (Option.map (fun (a, b, c, d) -> ((a, b), (c, d))) (Movie.info (Movie.encode clip)));
  Alcotest.(check bool) "garbage" true (Movie.info "not a movie" = None)

let test_decode_errors () =
  let encoded = Movie.encode clip in
  List.iter
    (fun s ->
      match Movie.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "expected decode error")
    [
      "";
      "NKV1";
      String.sub encoded 0 (String.length encoded - 5) (* truncated *);
      encoded ^ "junk";
    ]

let test_frame_dropping () =
  let half = Movie.transcode clip ~fps:12 () in
  Alcotest.(check int) "half the frames" 24 (List.length half.Movie.frames);
  Alcotest.(check (float 1e-6)) "duration preserved" (Movie.duration clip) (Movie.duration half);
  let third = Movie.transcode clip ~fps:8 () in
  Alcotest.(check int) "a third" 16 (List.length third.Movie.frames)

let test_rescaling () =
  let small = Movie.transcode clip ~width:32 ~height:24 () in
  (match small.Movie.frames with
   | f :: _ ->
     Alcotest.(check int) "width" 32 f.Image.width;
     Alcotest.(check int) "height" 24 f.Image.height
   | [] -> Alcotest.fail "no frames");
  Alcotest.(check bool) "smaller payload" true
    (String.length (Movie.encode small) < String.length (Movie.encode clip))

let test_transcode_reduces_bitrate () =
  let original = Movie.encode clip in
  let reduced = Movie.encode (Movie.transcode clip ~fps:6 ~width:32 ~height:24 ()) in
  Alcotest.(check bool) "bitrate drops" true (Movie.bitrate reduced < Movie.bitrate original /. 2.0)

let test_transcode_rejects_bad_targets () =
  Alcotest.check_raises "fps increase"
    (Invalid_argument "Movie.transcode: cannot raise the frame rate") (fun () ->
      ignore (Movie.transcode clip ~fps:60 ()));
  Alcotest.check_raises "zero width" (Invalid_argument "Movie.transcode: non-positive target")
    (fun () -> ignore (Movie.transcode clip ~width:0 ()))

let make_ctx () =
  let ctx = Core.Script.Interp.create () in
  Platform_v.install_all (Hostcall.stub ()) ctx;
  Core.Script.Interp.define_global ctx "clip"
    (Core.Script.Value.Vstr (Movie.encode clip));
  ctx

let run ctx src = Core.Script.Compile.run_string ctx src

let test_vocab_info_and_duration () =
  let ctx = make_ctx () in
  Alcotest.(check (float 1e-9)) "fps" 24.0
    (Core.Script.Value.to_number (run ctx "MovieTranscoder.info(clip).fps"));
  Alcotest.(check (float 1e-9)) "duration" 2.0
    (Core.Script.Value.to_number (run ctx "MovieTranscoder.duration(clip)"))

let test_vocab_transcode_script () =
  (* The mobile-device pattern: reduce rate and size when the clip's
     bitrate exceeds the device's link. *)
  let ctx = make_ctx () in
  let v =
    run ctx
      {|
var out = clip;
if (MovieTranscoder.bitrate(clip) > 1000) {
  out = MovieTranscoder.transcode(clip, 6, 32, 24);
}
var before = MovieTranscoder.info(clip);
var after = MovieTranscoder.info(out);
"" + before.frames + "->" + after.frames + " " + after.x + "x" + after.y
|}
  in
  Alcotest.(check string) "reduced" "48->12 32x24" (Core.Script.Value.to_string v)

let test_vocab_transcode_charges_fuel () =
  let ctx = make_ctx () in
  let before = Core.Script.Interp.fuel_used ctx in
  ignore (run ctx "MovieTranscoder.transcode(clip, 12, 0, 0)");
  Alcotest.(check bool) "pixel-proportional fuel" true
    (Core.Script.Interp.fuel_used ctx - before > 10_000)

let suite =
  [
    Alcotest.test_case "encode/decode roundtrip" `Quick test_encode_decode_roundtrip;
    Alcotest.test_case "header-only info" `Quick test_info_peek;
    Alcotest.test_case "malformed containers" `Quick test_decode_errors;
    Alcotest.test_case "frame dropping" `Quick test_frame_dropping;
    Alcotest.test_case "rescaling" `Quick test_rescaling;
    Alcotest.test_case "transcoding reduces bitrate" `Quick test_transcode_reduces_bitrate;
    Alcotest.test_case "bad targets rejected" `Quick test_transcode_rejects_bad_targets;
    Alcotest.test_case "vocab: info and duration" `Quick test_vocab_info_and_duration;
    Alcotest.test_case "vocab: device adaptation script" `Quick test_vocab_transcode_script;
    Alcotest.test_case "vocab: fuel charged" `Quick test_vocab_transcode_charges_fuel;
  ]
