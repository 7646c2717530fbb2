(** NKI — the synthetic raster format behind the image-transformer
    vocabulary.

    The paper transcodes GIF/JPEG/PNG with libjpeg-style codecs; the
    reproduction replaces those with a tiny self-contained format that
    still does real byte-level work, so Fig. 2's handler exercises the
    same code path: parse header, read dimensions, scale pixels,
    re-encode, rewrite Content-Type/Content-Length.

    Wire layout: magic "NKI1", 2-byte big-endian width, 2-byte
    big-endian height, 1 format byte (0 = raw 8-bit grayscale,
    1 = RLE-compressed — our "jpeg"), then the payload. *)

type format = Raw | Rle

type t = { width : int; height : int; pixels : Bytes.t (* row-major, width*height *) }

val synthesize : width:int -> height:int -> seed:int -> t
(** A deterministic test-pattern image (gradient + seed noise). *)

val encode : t -> format -> string

val encode_bytes : t -> format -> Bytes.t
(** As {!encode}, but returns the freshly built buffer itself so a
    caller that wants mutable bytes (e.g. the script engine's [Vbytes])
    can take ownership without a copy. The buffer is exact-size and
    never aliased by this module. *)

val decode : string -> (t * format, string) result
(** Wire bytes -> image. RLE payloads are decompressed directly into
    the exact-size pixel buffer (no intermediate buffer or copy). *)

val dimensions : string -> (int * int) option
(** Header-only peek, as [ImageTransformer.dimensions] does. *)

val scale : t -> width:int -> height:int -> t
(** Nearest-neighbor resampling. Raises [Invalid_argument] on
    non-positive targets. *)

val format_of_mime : string -> format option
(** "image/nki" -> Raw, "image/jpeg" | "image/nki-rle" -> Rle. *)

val mime_of_format : format -> string
