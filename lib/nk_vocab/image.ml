type format = Raw | Rle

type t = { width : int; height : int; pixels : Bytes.t }

let magic = "NKI1"

let synthesize ~width ~height ~seed =
  if width <= 0 || height <= 0 then invalid_arg "Image.synthesize: non-positive dimensions";
  let pixels = Bytes.create (width * height) in
  let rng = Nk_util.Prng.create seed in
  for y = 0 to height - 1 do
    for x = 0 to width - 1 do
      (* Smooth gradient with occasional noise: compresses well under
         RLE but not trivially. *)
      let base = (x * 255 / width) + (y * 255 / height) in
      let v = if Nk_util.Prng.int rng 16 = 0 then Nk_util.Prng.int rng 256 else base / 2 in
      Bytes.set pixels ((y * width) + x) (Char.chr (v land 0xFF))
    done
  done;
  { width; height; pixels }

(* RLE straight out of a pixel buffer into a caller-provided scratch
   buffer (worst case 2*n: every pixel its own run). Returns the number
   of bytes written: (count, byte) pairs, byte-for-byte the output of
   the original Buffer-based encoder. *)
let rle_compress_into (px : Bytes.t) ~len (out : Bytes.t) : int =
  let i = ref 0 in
  let o = ref 0 in
  while !i < len do
    let c = Bytes.unsafe_get px !i in
    let run = ref 1 in
    while !i + !run < len && Bytes.unsafe_get px (!i + !run) = c && !run < 255 do
      incr run
    done;
    Bytes.unsafe_set out !o (Char.unsafe_chr !run);
    Bytes.unsafe_set out (!o + 1) c;
    o := !o + 2;
    i := !i + !run
  done;
  !o

(* Decompress [src] (from [pos] to the end) directly into [dst],
   filling runs in place — no intermediate buffer, no copy. Error
   detection matches the original decompress-then-check sequence
   exactly: odd payloads and zero runs are reported in scan order, and
   a payload that would overflow [dst] keeps scanning (without writing)
   so a later zero run still wins over the size mismatch, as it did
   when decompression ran to completion first. *)
exception Rle_error of string

(* Each byte value replicated across an int64, so a short run can be
   written as one 8-byte store instead of a data-dependent number of
   byte stores (run lengths in real images are effectively random, so
   a per-run branch or fill-loop mispredicts constantly). *)
let rle_words =
  Array.init 256 (fun c -> Int64.mul (Int64.of_int c) 0x0101010101010101L)

let rle_decompress_into ~src ~pos (dst : Bytes.t) : (unit, string) result =
  let n = String.length src in
  if (n - pos) mod 2 <> 0 then Error "RLE payload has odd length"
  else begin
    let cap = Bytes.length dst in
    let out = ref 0 in
    let i = ref pos in
    try
      while !i < n do
        let run = Char.code (String.unsafe_get src !i) in
        let c = String.unsafe_get src (!i + 1) in
        let o = !out in
        if run >= 1 && run <= 8 && o + 8 <= cap then
          (* One unconditional splat covers any run up to 8; the
             overshoot stays in bounds and is overwritten by the next
             run (or lies beyond the final [out], where only the size
             check looks). *)
          Bytes.set_int64_le dst o (Array.unsafe_get rle_words (Char.code c))
        else if run = 0 then raise (Rle_error "zero-length RLE run")
        else if o + run > cap then begin
          let j = ref (!i + 2) in
          let zero = ref false in
          while (not !zero) && !j < n do
            if Char.code (String.unsafe_get src !j) = 0 then zero := true
            else j := !j + 2
          done;
          raise
            (Rle_error
               (if !zero then "zero-length RLE run" else "RLE payload size mismatch"))
        end
        else Bytes.unsafe_fill dst o run c;
        out := !out + run;
        i := !i + 2
      done;
      if !out <> cap then Error "RLE payload size mismatch" else Ok ()
    with Rle_error e -> Error e
  end

let set_header (out : Bytes.t) t format =
  Bytes.blit_string magic 0 out 0 4;
  Bytes.unsafe_set out 4 (Char.chr ((t.width lsr 8) land 0xFF));
  Bytes.unsafe_set out 5 (Char.chr (t.width land 0xFF));
  Bytes.unsafe_set out 6 (Char.chr ((t.height lsr 8) land 0xFF));
  Bytes.unsafe_set out 7 (Char.chr (t.height land 0xFF));
  Bytes.unsafe_set out 8 (match format with Raw -> '\x00' | Rle -> '\x01')

let encode_bytes t format =
  let n = Bytes.length t.pixels in
  match format with
  | Raw ->
    let out = Bytes.create (9 + n) in
    set_header out t format;
    Bytes.blit t.pixels 0 out 9 n;
    out
  | Rle ->
    let scratch = Bytes.create (2 * n) in
    let o = rle_compress_into t.pixels ~len:n scratch in
    let out = Bytes.create (9 + o) in
    set_header out t format;
    Bytes.blit scratch 0 out 9 o;
    out

let encode t format =
  (* [encode_bytes] hands over a fresh buffer nothing else references;
     freezing it in place saves the copy on multi-hundred-KB images. *)
  Bytes.unsafe_to_string (encode_bytes t format)

let dimensions s =
  if String.length s >= 9 && String.sub s 0 4 = magic then
    let w = (Char.code s.[4] lsl 8) lor Char.code s.[5] in
    let h = (Char.code s.[6] lsl 8) lor Char.code s.[7] in
    Some (w, h)
  else None

let decode s =
  if String.length s < 9 then Error "truncated NKI image"
  else if String.sub s 0 4 <> magic then Error "bad NKI magic"
  else begin
    let w = (Char.code s.[4] lsl 8) lor Char.code s.[5] in
    let h = (Char.code s.[6] lsl 8) lor Char.code s.[7] in
    if w <= 0 || h <= 0 then Error "bad NKI dimensions"
    else begin
      let plen = String.length s - 9 in
      match s.[8] with
      | '\x00' ->
        if plen <> w * h then Error "raw payload size mismatch"
        else begin
          (* One blit from the wire bytes into the pixel buffer — the
             old String.sub payload copy is gone. *)
          let pixels = Bytes.create plen in
          Bytes.blit_string s 9 pixels 0 plen;
          Ok ({ width = w; height = h; pixels }, Raw)
        end
      | '\x01' when w * h > 255 * (plen / 2) -> (
        (* No payload this long decodes to [w * h] pixels (a run covers
           at most 255): report what decoding would, without allocating
           a buffer sized by the untrusted header. *)
        match rle_decompress_into ~src:s ~pos:9 Bytes.empty with
        | Error e -> Error e
        | Ok () -> Error "RLE payload size mismatch")
      | '\x01' -> (
        (* Decompress runs straight into the exact-size pixel buffer:
           no Buffer growth, no intermediate string, no final copy. *)
        let pixels = Bytes.create (w * h) in
        match rle_decompress_into ~src:s ~pos:9 pixels with
        | Error e -> Error e
        | Ok () -> Ok ({ width = w; height = h; pixels }, Rle))
      | c -> Error (Printf.sprintf "unknown NKI format byte %d" (Char.code c))
    end
  end

let scale t ~width ~height =
  if width <= 0 || height <= 0 then invalid_arg "Image.scale: non-positive dimensions";
  let pixels = Bytes.create (width * height) in
  (* The source column for a given x is the same on every row; resolve
     the divisions once into a map instead of once per pixel. *)
  let sxs = Array.make width 0 in
  for x = 0 to width - 1 do
    Array.unsafe_set sxs x (x * t.width / width)
  done;
  let src = t.pixels in
  for y = 0 to height - 1 do
    let srow = y * t.height / height * t.width in
    let drow = y * width in
    for x = 0 to width - 1 do
      Bytes.unsafe_set pixels (drow + x)
        (Bytes.unsafe_get src (srow + Array.unsafe_get sxs x))
    done
  done;
  { width; height; pixels }

let format_of_mime mime =
  match String.lowercase_ascii (String.trim mime) with
  | "image/nki" -> Some Raw
  | "image/jpeg" | "image/nki-rle" | "image/gif" | "image/png" -> Some Rle
  | _ -> None

let mime_of_format = function Raw -> "image/nki" | Rle -> "image/jpeg"
