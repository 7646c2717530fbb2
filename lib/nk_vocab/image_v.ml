open Nk_script.Value

let body_string = function
  | Vbytes b ->
    (* Zero-copy read view: the decoder only reads the string within
       this native call, and nothing can mutate the Vbytes while the
       call runs, so a full-length buffer can be frozen in place. *)
    if Bytes.length b.data = b.blen then Bytes.unsafe_to_string b.data
    else Bytes.sub_string b.data 0 b.blen
  | v -> to_string v

let format_of_type_string s =
  match String.lowercase_ascii s with
  | "raw" | "nki" -> Some Image.Raw
  | "rle" | "jpeg" | "gif" | "png" -> Some Image.Rle
  | _ -> None

let install ctx =
  let o = new_obj () in
  (* Transcoding is pixel-proportional CPU; charge it as fuel. *)
  let charge_pixels n = Nk_script.Interp.consume_fuel ctx (n / 8) in
  obj_set o "type"
    (native "type" (fun _ args ->
         match Image.format_of_mime (to_string (arg 0 args)) with
         | Some Image.Raw -> Vstr "raw"
         | Some Image.Rle -> Vstr "rle"
         | None -> Vnull));
  obj_set o "dimensions"
    (native "dimensions" (fun _ args ->
         match Image.dimensions (body_string (arg 0 args)) with
         | Some (w, h) ->
           let dim = new_obj () in
           obj_set dim "x" (Vnum (float_of_int w));
           obj_set dim "y" (Vnum (float_of_int h));
           Vobj dim
         | None -> error "dimensions: not an NKI image"));
  obj_set o "transform"
    (native "transform" (fun _ args ->
         let data = body_string (arg 0 args) in
         let to_type =
           match format_of_type_string (to_string (arg 2 args)) with
           | Some f -> f
           | None -> error "transform: unknown target type %s" (to_string (arg 2 args))
         in
         let width = max 1 (to_int (arg 3 args)) in
         let height = max 1 (to_int (arg 4 args)) in
         match Image.decode data with
         | Error e -> error "transform: %s" e
         | Ok (img, _) ->
           charge_pixels ((img.Image.width * img.Image.height) + (width * height));
           let scaled = Image.scale img ~width ~height in
           (* [encode_bytes] hands over a fresh buffer; adopt it as the
              Vbytes payload instead of stringifying and re-copying. *)
           Vbytes (bytes_of_bytes (Image.encode_bytes scaled to_type))));
  obj_set o "mimeType"
    (native "mimeType" (fun _ args ->
         match format_of_type_string (to_string (arg 0 args)) with
         | Some f -> Vstr (Image.mime_of_format f)
         | None -> Vnull));
  Nk_script.Interp.define_global ctx "ImageTransformer" (Vobj o)
