open Nk_script.Value

let body_string = function
  | Vbytes b -> bytes_to_string b
  | v -> to_string v

let install ctx =
  let o = new_obj () in
  (* Frame decode/re-encode is pixel-proportional CPU. *)
  let charge n = Nk_script.Interp.consume_fuel ctx (n / 8) in
  obj_set o "info"
    (native "info" (fun _ args ->
         match Movie.info (body_string (arg 0 args)) with
         | None -> Vnull
         | Some (frames, fps, w, h) ->
           let r = new_obj () in
           obj_set r "frames" (Vnum (float_of_int frames));
           obj_set r "fps" (Vnum (float_of_int fps));
           obj_set r "x" (Vnum (float_of_int w));
           obj_set r "y" (Vnum (float_of_int h));
           Vobj r));
  obj_set o "duration"
    (native "duration" (fun _ args ->
         match Movie.decode (body_string (arg 0 args)) with
         | Ok m -> Vnum (Movie.duration m)
         | Error _ -> Vnull));
  obj_set o "bitrate"
    (native "bitrate" (fun _ args -> Vnum (Movie.bitrate (body_string (arg 0 args)))));
  obj_set o "transcode"
    (native "transcode" (fun _ args ->
         let data = body_string (arg 0 args) in
         match Movie.decode data with
         | Error e -> error "MovieTranscoder.transcode: %s" e
         | Ok movie ->
           let pick i = match to_int (arg i args) with n when n > 0 -> Some n | _ -> None in
           let fps = pick 1 and width = pick 2 and height = pick 3 in
           (match Movie.info data with
            | Some (frames, _, w, h) -> charge (frames * w * h)
            | None -> ());
           (match Movie.transcode movie ?fps ?width ?height () with
            | transcoded -> Vbytes (bytes_of_string (Movie.encode transcoded))
            | exception Invalid_argument msg -> error "MovieTranscoder.transcode: %s" msg)));
  Nk_script.Interp.define_global ctx "MovieTranscoder" (Vobj o)
