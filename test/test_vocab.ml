(* Vocabularies: the NKI image codec, XML engine, and the script-facing
   Request/Response, ImageTransformer, Xml, Regex, System, Cache,
   HardState, Crypto and fetchResource globals. *)

open Core.Vocab
open Core.Script

let test_image_encode_decode_raw () =
  let img = Image.synthesize ~width:32 ~height:24 ~seed:1 in
  match Image.decode (Image.encode img Image.Raw) with
  | Ok (img', Image.Raw) ->
    Alcotest.(check int) "width" 32 img'.Image.width;
    Alcotest.(check int) "height" 24 img'.Image.height;
    Alcotest.(check bytes) "pixels" img.Image.pixels img'.Image.pixels
  | _ -> Alcotest.fail "decode failed"

let test_image_encode_decode_rle () =
  let img = Image.synthesize ~width:64 ~height:48 ~seed:2 in
  match Image.decode (Image.encode img Image.Rle) with
  | Ok (img', Image.Rle) -> Alcotest.(check bytes) "lossless" img.Image.pixels img'.Image.pixels
  | _ -> Alcotest.fail "decode failed"

let test_image_dimensions_peek () =
  let img = Image.synthesize ~width:352 ~height:416 ~seed:3 in
  Alcotest.(check (option (pair int int))) "header peek" (Some (352, 416))
    (Image.dimensions (Image.encode img Image.Rle));
  Alcotest.(check (option (pair int int))) "garbage" None (Image.dimensions "not an image")

let test_image_scale () =
  let img = Image.synthesize ~width:100 ~height:60 ~seed:4 in
  let scaled = Image.scale img ~width:50 ~height:30 in
  Alcotest.(check int) "width" 50 scaled.Image.width;
  Alcotest.(check int) "height" 30 scaled.Image.height;
  Alcotest.(check int) "pixel count" 1500 (Bytes.length scaled.Image.pixels);
  (* Identity scale preserves the image. *)
  let same = Image.scale img ~width:100 ~height:60 in
  Alcotest.(check bytes) "identity" img.Image.pixels same.Image.pixels

let test_image_decode_errors () =
  List.iter
    (fun s ->
      match Image.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected decode error")
    [ ""; "NKI1"; "XXXX\x00\x10\x00\x10\x00"; "NKI1\x00\x10\x00\x10\x00short" ]

(* The pre-optimization codec (Buffer-based, byte-at-a-time), kept
   verbatim as the behavioral reference: the zero-copy implementation in
   [Image] must match it bit-for-bit — wire bytes, decoded pixels, and
   error messages (the resource monitor and the differential suite both
   observe errors, so even failure text is part of the contract). *)
module Ref_image = struct
  let magic = "NKI1"

  let rle_compress s =
    let buf = Buffer.create (String.length s / 2) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      let c = s.[!i] in
      let run = ref 1 in
      while !i + !run < n && s.[!i + !run] = c && !run < 255 do
        incr run
      done;
      Buffer.add_char buf (Char.chr !run);
      Buffer.add_char buf c;
      i := !i + !run
    done;
    Buffer.contents buf

  let rle_decompress s =
    if String.length s mod 2 <> 0 then Error "RLE payload has odd length"
    else begin
      let buf = Buffer.create (String.length s * 2) in
      let rec go i =
        if i >= String.length s then Ok (Buffer.contents buf)
        else begin
          let run = Char.code s.[i] in
          if run = 0 then Error "zero-length RLE run"
          else begin
            for _ = 1 to run do
              Buffer.add_char buf s.[i + 1]
            done;
            go (i + 2)
          end
        end
      in
      go 0
    end

  let encode (t : Image.t) format =
    let buf = Buffer.create (16 + Bytes.length t.Image.pixels) in
    Buffer.add_string buf magic;
    Buffer.add_char buf (Char.chr ((t.Image.width lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (t.Image.width land 0xFF));
    Buffer.add_char buf (Char.chr ((t.Image.height lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (t.Image.height land 0xFF));
    (match format with
    | Image.Raw ->
      Buffer.add_char buf '\x00';
      Buffer.add_bytes buf t.Image.pixels
    | Image.Rle ->
      Buffer.add_char buf '\x01';
      Buffer.add_string buf (rle_compress (Bytes.to_string t.Image.pixels)));
    Buffer.contents buf

  let decode s =
    if String.length s < 9 then Error "truncated NKI image"
    else if String.sub s 0 4 <> magic then Error "bad NKI magic"
    else begin
      let w = (Char.code s.[4] lsl 8) lor Char.code s.[5] in
      let h = (Char.code s.[6] lsl 8) lor Char.code s.[7] in
      if w <= 0 || h <= 0 then Error "bad NKI dimensions"
      else begin
        let payload = String.sub s 9 (String.length s - 9) in
        match s.[8] with
        | '\x00' ->
          if String.length payload <> w * h then Error "raw payload size mismatch"
          else Ok ({ Image.width = w; height = h; pixels = Bytes.of_string payload }, Image.Raw)
        | '\x01' -> (
          match rle_decompress payload with
          | Error e -> Error e
          | Ok raw ->
            if String.length raw <> w * h then Error "RLE payload size mismatch"
            else Ok ({ Image.width = w; height = h; pixels = Bytes.of_string raw }, Image.Rle))
        | c -> Error (Printf.sprintf "unknown NKI format byte %d" (Char.code c))
      end
    end

  let scale (t : Image.t) ~width ~height =
    let pixels = Bytes.create (width * height) in
    for y = 0 to height - 1 do
      let sy = y * t.Image.height / height in
      for x = 0 to width - 1 do
        let sx = x * t.Image.width / width in
        Bytes.set pixels ((y * width) + x) (Bytes.get t.Image.pixels ((sy * t.Image.width) + sx))
      done
    done;
    { Image.width; height; pixels }
end

(* The RLE payload [Image.encode] writes for a one-row image of [s],
   past its 9-byte header. *)
let rle_compress s =
  let n = String.length s in
  let e = Image.encode { Image.width = n; height = 1; pixels = Bytes.of_string s } Image.Rle in
  String.sub e 9 (String.length e - 9)

let test_rle_roundtrip () =
  let cases = [ ""; "a"; "aaaa"; "abab"; String.make 300 'x'; "mixed aaa bbb c" ] in
  List.iter
    (fun s ->
      match Ref_image.rle_decompress (rle_compress s) with
      | Ok s' -> Alcotest.(check string) "roundtrip" s s'
      | Error e -> Alcotest.fail e)
    cases

let rle_roundtrip_prop =
  QCheck.Test.make ~name:"rle: compress/decompress roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 500))
    (fun s -> Ref_image.rle_decompress (rle_compress s) = Ok s)

let same_decode a b =
  match (a, b) with
  | Ok ((i1 : Image.t), f1), Ok ((i2 : Image.t), f2) ->
    f1 = f2 && i1.Image.width = i2.Image.width && i1.Image.height = i2.Image.height
    && i1.Image.pixels = i2.Image.pixels
  | Error e1, Error e2 -> (e1 : string) = e2
  | _ -> false

let transcode_parity_prop =
  (* The full Fig. 2 pipeline (decode -> scale -> re-encode) through the
     optimized codec, compared bit-for-bit with the reference. *)
  QCheck.Test.make ~name:"image: transcode pipeline bit-identical to reference codec" ~count:150
    QCheck.(
      quad (int_range 1 80) (int_range 1 60) (int_bound 999)
        (pair (pair (int_range 1 80) (int_range 1 60)) (pair bool bool)))
    (fun (w, h, seed, ((tw, th), (in_rle, out_rle))) ->
      let img = Image.synthesize ~width:w ~height:h ~seed in
      let fmt_in = if in_rle then Image.Rle else Image.Raw in
      let fmt_out = if out_rle then Image.Rle else Image.Raw in
      let wire = Image.encode img fmt_in in
      wire = Ref_image.encode img fmt_in
      && same_decode (Image.decode wire) (Ref_image.decode wire)
      &&
      match Image.decode wire with
      | Error e -> QCheck.Test.fail_reportf "decode of own encode failed: %s" e
      | Ok (decoded, _) ->
        let scaled = Image.scale decoded ~width:tw ~height:th in
        let ref_scaled = Ref_image.scale decoded ~width:tw ~height:th in
        scaled.Image.pixels = ref_scaled.Image.pixels
        && Image.encode scaled fmt_out = Ref_image.encode ref_scaled fmt_out)

let decode_parity_prop =
  (* Adversarial wire bytes: mutate a valid encoding (bit flip,
     truncation, zeroed run length, bogus format byte) and require the
     two decoders to agree exactly — same pixels or the same error
     string, with the same precedence between failure modes. *)
  QCheck.Test.make ~name:"image: decode of corrupted wire agrees with reference codec" ~count:300
    QCheck.(
      quad (int_range 1 48) (int_range 1 32) (int_bound 999)
        (pair (int_bound 3) (pair (int_bound 99_999) (int_bound 255))))
    (fun (w, h, seed, (kind, (pos_seed, byte))) ->
      let img = Image.synthesize ~width:w ~height:h ~seed in
      let wire = Image.encode img Image.Rle in
      let n = String.length wire in
      let mutated =
        let b = Bytes.of_string wire in
        match kind with
        | 0 ->
          (* arbitrary byte flip anywhere, header included *)
          let i = pos_seed mod n in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor byte));
          Bytes.to_string b
        | 1 -> String.sub wire 0 (pos_seed mod (n + 1))
        | 2 when n > 9 ->
          (* zero a run-length byte: even payload offset *)
          let i = 9 + (pos_seed mod (n - 9)) / 2 * 2 in
          if i < n then Bytes.set b i '\x00';
          Bytes.to_string b
        | _ ->
          Bytes.set b 8 (Char.chr byte);
          Bytes.to_string b
      in
      same_decode (Image.decode mutated) (Ref_image.decode mutated)
      || QCheck.Test.fail_reportf "decoders disagree on %S" mutated)

let test_image_mime () =
  Alcotest.(check bool) "jpeg is rle" true (Image.format_of_mime "image/jpeg" = Some Image.Rle);
  Alcotest.(check bool) "nki raw" true (Image.format_of_mime "image/nki" = Some Image.Raw);
  Alcotest.(check bool) "unknown" true (Image.format_of_mime "text/html" = None)

let xml_exn src =
  match Xml.parse src with Ok node -> node | Error e -> Alcotest.failf "parse %S: %s" src e

let test_xml_parse_serialize () =
  let src = "<a x=\"1\"><b>text</b><c/></a>" in
  let node = xml_exn src in
  Alcotest.(check string) "roundtrip" src (Xml.serialize node)

let test_xml_entities () =
  let node = xml_exn "<p>a &lt;b&gt; &amp; c</p>" in
  Alcotest.(check string) "unescaped text" "a <b> & c" (Xml.text_content node);
  Alcotest.(check string) "re-escaped" "<p>a &lt;b&gt; &amp; c</p>" (Xml.serialize node)

let test_xml_prolog_and_comments () =
  let node = xml_exn "<?xml version=\"1.0\"?><!-- hi --><root><!-- inner -->x</root>" in
  Alcotest.(check string) "text" "x" (Xml.text_content node)

let test_xml_errors () =
  List.iter
    (fun s ->
      match Xml.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ ""; "<a>"; "<a></b>"; "<a><b></a></b>"; "text only"; "<a></a><b></b>"; "<a x=1></a>" ]

let test_xml_find_all () =
  let node = xml_exn "<r><s><p>1</p></s><p>2</p></r>" in
  Alcotest.(check int) "two paras" 2 (List.length (Xml.find_all node "p"))

let test_xml_transform () =
  let sheet = [ { Xml.tag = "lecture"; html_tag = "article"; html_class = Some "lec" } ] in
  let html = Result.get_ok (Xml.to_html sheet "<lecture><unknown>t</unknown></lecture>") in
  Alcotest.(check bool) "rule applied" true
    (Core.Util.Strutil.contains_sub html ~sub:"<article class=\"lec\">");
  Alcotest.(check bool) "default rule" true
    (Core.Util.Strutil.contains_sub html ~sub:"<div class=\"unknown\">");
  Alcotest.(check bool) "shell" true (Core.Util.Strutil.starts_with ~prefix:"<html><body>" html)


let test_xml_cdata () =
  let node = xml_exn "<doc><![CDATA[raw <tags> & ampersands]]></doc>" in
  Alcotest.(check string) "verbatim text" "raw <tags> & ampersands" (Xml.text_content node);
  (* Serialization re-escapes it as ordinary text. *)
  Alcotest.(check string) "re-escaped" "<doc>raw &lt;tags&gt; &amp; ampersands</doc>"
    (Xml.serialize node);
  (match Xml.parse "<doc><![CDATA[unterminated</doc>" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unterminated CDATA should fail")

(* The XML code as it was before [Xml.to_html] rendered from source text:
   a tree parser, a tree-to-tree stylesheet transform and a serializer.
   The one-pass renderer, and the parser that now shares its scanner,
   must agree with it exactly, error messages included. *)
module Ref_xml = struct
  type node = Xml.node = Element of string * (string * string) list * node list | Text of string

  type rule = Xml.rule = { tag : string; html_tag : string; html_class : string option }

  (* Append [s] to [buf], escaping markup characters. Unescaped spans are
     copied with a single [add_substring] per span rather than char by
     char. *)
  let escape_into buf s =
    let n = String.length s in
    let start = ref 0 in
    for i = 0 to n - 1 do
      match String.unsafe_get s i with
      | ('<' | '>' | '&' | '"' | '\'') as c ->
        Buffer.add_substring buf s !start (i - !start);
        Buffer.add_string buf
          (match c with
           | '<' -> "&lt;"
           | '>' -> "&gt;"
           | '&' -> "&amp;"
           | '"' -> "&quot;"
           | _ -> "&apos;");
        start := i + 1
      | _ -> ()
    done;
    Buffer.add_substring buf s !start (n - !start)

  let unescape_slow s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec go i =
      if i >= n then ()
      else if s.[i] = '&' then begin
        let entity_end = try Some (String.index_from s i ';') with Not_found -> None in
        match entity_end with
        | Some j when j - i <= 6 ->
          let name = String.sub s (i + 1) (j - i - 1) in
          let repl =
            match name with
            | "lt" -> "<"
            | "gt" -> ">"
            | "amp" -> "&"
            | "quot" -> "\""
            | "apos" -> "'"
            | _ -> "&" ^ name ^ ";"
          in
          Buffer.add_string buf repl;
          go (j + 1)
        | _ ->
          Buffer.add_char buf '&';
          go (i + 1)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
    in
    go 0;
    Buffer.contents buf

  let unescape s =
    (* No ampersand, no entities: the common case for element text. *)
    match String.index_opt s '&' with None -> s | Some _ -> unescape_slow s

  exception Xml_error of string

  type parser_state = { src : string; mutable pos : int }

  let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

  let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

  (* The scanning loops below index the source directly instead of going
     through [peek]: [Some c] allocates, and these loops run once per
     character of the document. *)
  let skip_spaces st =
    let src = st.src in
    let n = String.length src in
    while st.pos < n && is_space (String.unsafe_get src st.pos) do
      st.pos <- st.pos + 1
    done

  (* Allocation-free equivalent of [String.trim s <> ""] (same character
     set as [String.trim], which also strips form feeds). *)
  let has_non_space s =
    let n = String.length s in
    let rec go i =
      i < n
      &&
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '\r' | '\012' -> go (i + 1)
      | _ -> true
    in
    go 0

  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-'
    || c = '_' || c = ':' || c = '.'

  let read_name st =
    let src = st.src in
    let n = String.length src in
    let start = st.pos in
    while st.pos < n && is_name_char (String.unsafe_get src st.pos) do
      st.pos <- st.pos + 1
    done;
    if st.pos = start then raise (Xml_error (Printf.sprintf "expected name at %d" st.pos));
    String.sub st.src start (st.pos - start)

  let expect st c =
    match peek st with
    | Some c' when c' = c -> st.pos <- st.pos + 1
    | _ -> raise (Xml_error (Printf.sprintf "expected '%c' at %d" c st.pos))

  let skip_until st marker =
    match Core.Util.Strutil.index_sub st.src ~sub:marker ~start:st.pos with
    | Some i -> st.pos <- i + String.length marker
    | None -> raise (Xml_error ("unterminated " ^ marker))

  let read_attributes st =
    let attrs = ref [] in
    let continue = ref true in
    while !continue do
      skip_spaces st;
      match peek st with
      | Some c when is_name_char c ->
        let name = read_name st in
        skip_spaces st;
        expect st '=';
        skip_spaces st;
        let quote =
          match peek st with
          | Some (('"' | '\'') as q) ->
            st.pos <- st.pos + 1;
            q
          | _ -> raise (Xml_error "expected quoted attribute value")
        in
        let start = st.pos in
        let n = String.length st.src in
        while st.pos < n && String.unsafe_get st.src st.pos <> quote do
          st.pos <- st.pos + 1
        done;
        expect st quote;
        attrs := (name, unescape (String.sub st.src start (st.pos - 1 - start))) :: !attrs
      | _ -> continue := false
    done;
    List.rev !attrs

  let rec parse_element st =
    expect st '<';
    let name = read_name st in
    let attrs = read_attributes st in
    skip_spaces st;
    match peek st with
    | Some '/' ->
      st.pos <- st.pos + 1;
      expect st '>';
      Element (name, attrs, [])
    | Some '>' ->
      st.pos <- st.pos + 1;
      let children = parse_children st name in
      Element (name, attrs, children)
    | _ -> raise (Xml_error (Printf.sprintf "malformed tag <%s> at %d" name st.pos))

  and parse_children st parent =
    let children = ref [] in
    let rec go () =
      match peek st with
      | None -> raise (Xml_error (Printf.sprintf "unterminated element <%s>" parent))
      | Some '<' ->
        if st.pos + 1 < String.length st.src then begin
          match st.src.[st.pos + 1] with
          | '/' ->
            st.pos <- st.pos + 2;
            let name = read_name st in
            skip_spaces st;
            expect st '>';
            if name <> parent then
              raise (Xml_error (Printf.sprintf "mismatched </%s>, expected </%s>" name parent))
          | '!' ->
            if st.pos + 3 < String.length st.src && String.sub st.src st.pos 4 = "<!--" then
              skip_until st "-->"
            else if
              st.pos + 8 < String.length st.src && String.sub st.src st.pos 9 = "<![CDATA["
            then begin
              (* CDATA: verbatim text, no entity processing *)
              let start = st.pos + 9 in
              skip_until st "]]>";
              let text = String.sub st.src start (st.pos - 3 - start) in
              if text <> "" then children := Text text :: !children
            end
            else skip_until st ">";
            go ()
          | '?' ->
            skip_until st "?>";
            go ()
          | _ ->
            children := parse_element st :: !children;
            go ()
        end
        else raise (Xml_error "stray '<' at end of input")
      | Some _ ->
        let start = st.pos in
        let n = String.length st.src in
        while st.pos < n && String.unsafe_get st.src st.pos <> '<' do
          st.pos <- st.pos + 1
        done;
        let text = unescape (String.sub st.src start (st.pos - start)) in
        if has_non_space text then children := Text text :: !children;
        go ()
    in
    go ();
    List.rev !children

  let parse src =
    let st = { src; pos = 0 } in
    try
      skip_spaces st;
      (* leading declaration / comments *)
      let rec skip_prolog () =
        if st.pos + 1 < String.length src && src.[st.pos] = '<' then
          match src.[st.pos + 1] with
          | '?' ->
            skip_until st "?>";
            skip_spaces st;
            skip_prolog ()
          | '!' ->
            if st.pos + 3 < String.length src && String.sub src st.pos 4 = "<!--" then begin
              skip_until st "-->";
              skip_spaces st;
              skip_prolog ()
            end
            else begin
              skip_until st ">";
              skip_spaces st;
              skip_prolog ()
            end
          | _ -> ()
      in
      skip_prolog ();
      let root = parse_element st in
      skip_spaces st;
      if st.pos <> String.length src then Error "trailing content after root element"
      else Ok root
    with Xml_error msg -> Error msg

  (* One buffer threads the whole tree: the old per-node
     Printf/String.concat construction allocated an intermediate string
     per element per level. *)
  let rec serialize_into buf = function
    | Text t -> escape_into buf t
    | Element (name, attrs, children) ->
      Buffer.add_char buf '<';
      Buffer.add_string buf name;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          escape_into buf v;
          Buffer.add_char buf '"')
        attrs;
      if children = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        List.iter (serialize_into buf) children;
        Buffer.add_string buf "</";
        Buffer.add_string buf name;
        Buffer.add_char buf '>'
      end

  let rec transform sheet node =
    match node with
    | Text _ -> node
    | Element (name, _attrs, children) ->
      let children = List.map (transform sheet) children in
      (match List.find_opt (fun r -> r.tag = name) sheet with
       | Some rule ->
         let attrs = match rule.html_class with Some c -> [ ("class", c) ] | None -> [] in
         Element (rule.html_tag, attrs, children)
       | None -> Element ("div", [ ("class", name) ], children))

  let to_html sheet node =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "<html><body>";
    serialize_into buf (transform sheet node);
    Buffer.add_string buf "</body></html>";
    Buffer.contents buf

  let render sheet src = Result.map (to_html sheet) (parse src)
end

(* Documents from a token alphabet: well-formed element trees most of
   the time, with every lexical case the scanner distinguishes in text,
   attribute and markup position, and mutations that break them. *)
let gen_xml_doc =
  let open QCheck.Gen in
  let text =
    oneofl
      [
        "hello"; "a b"; " "; "\n  "; "\t"; "\012"; "&amp;"; "&lt;"; "&gt;"; "&quot;"; "&apos;";
        "&bogus;"; "&"; "x & y"; "&toolongname;"; "&amp"; "&#60;"; "'"; "\""; ">"; "it's";
        "a\"b>c";
      ]
  in
  (* Broken tokens are rare, so that about half the documents parse. *)
  let rarely good bad = frequency [ (40, oneofl good); (1, oneofl bad) ] in
  let markup =
    rarely
      [
        "<![CDATA[raw <x> & 'q' \"d\"]]>"; "<![CDATA[]]>"; "<![CDATA[  ]]>"; "<![CDATA[\n]]>";
        "<!-- note -->"; "<!---->"; "<?pi data?>"; "<!DOCTYPE x>";
      ]
      [ "<"; "<!-- open"; "<![CDATA[open"; "<?open"; "</"; "<!" ]
  in
  let name =
    oneofl
      [ "lecture"; "title"; "para"; "parb"; "section"; "student"; "x"; "y"; "a:b"; "d-1"; "q.r" ]
  in
  let attr =
    rarely
      [ " k=\"v\""; " k='v'"; " k = \"v &amp; w\""; " s='a\"b'"; " e=\"\""; "\n t='<&>'" ]
      [ " u=v"; " k=\"open"; " k"; " =\"v\"" ]
  in
  let rec element depth =
    name >>= fun n ->
    list_size (int_bound 2) attr >>= fun attrs ->
    let start = "<" ^ n ^ String.concat "" attrs in
    let kid =
      if depth = 0 then frequency [ (3, text); (1, markup) ]
      else frequency [ (3, text); (2, markup); (3, element (depth - 1)) ]
    in
    list_size (int_bound 4) kid >>= fun kids ->
    let body = String.concat "" kids in
    frequency
      [
        (30, return (start ^ ">" ^ body ^ "</" ^ n ^ ">"));
        (3, return (start ^ ">" ^ body ^ "</" ^ n ^ " >"));
        (6, oneofl [ start ^ "/>"; start ^ " />"; start ^ "></" ^ n ^ ">" ]);
        (1, map (fun m -> start ^ ">" ^ body ^ "</" ^ m ^ ">") name);
        (1, return (start ^ ">" ^ body));
      ]
  in
  let prolog =
    list_size (int_bound 2)
      (oneofl [ "<?xml version=\"1.0\"?>"; "<!-- pre -->"; "<!DOCTYPE lecture>"; " "; "\n" ])
  in
  let trailing = rarely [ ""; " \n" ] [ "x"; "<b/>"; "<!-- post -->"; "&amp;" ] in
  let doc =
    map
      (fun (p, root, t) -> String.concat "" p ^ root ^ t)
      (triple prolog (element 3) trailing)
  in
  doc >>= fun d ->
  let n = String.length d in
  frequency
    [
      (16, return d);
      (1, map (fun i -> String.sub d 0 i) (int_bound n));
      ( 1,
        map2
          (fun i tok -> String.sub d 0 i ^ tok ^ String.sub d i (n - i))
          (int_bound n) (oneof [ text; markup ]) );
    ]

(* The SIMM stylesheet plus rules that exercise first-match order and a
   class that needs escaping. *)
let diff_sheet =
  Core.Workload.Simm.stylesheet
  @ [
      { Xml.tag = "x"; html_tag = "em"; html_class = Some "q\"<&'>" };
      { Xml.tag = "x"; html_tag = "strong"; html_class = None };
      { Xml.tag = "a:b"; html_tag = "span"; html_class = None };
    ]

let show_result = function Ok s -> "Ok " ^ s | Error e -> "Error " ^ e

let xml_agrees src =
  Xml.to_html diff_sheet src = Ref_xml.render diff_sheet src && Xml.parse src = Ref_xml.parse src

let xml_differential_prop =
  QCheck.Test.make ~name:"xml: to_html and parse agree with the tree reference" ~count:3000
    ~long_factor:10
    (QCheck.make ~print:(Printf.sprintf "%S") gen_xml_doc)
    (fun src ->
      xml_agrees src
      || QCheck.Test.fail_reportf "to_html:   %s\nreference: %s"
           (show_result (Xml.to_html diff_sheet src))
           (show_result (Ref_xml.render diff_sheet src)))

let test_xml_simm_lectures () =
  let module Simm = Core.Workload.Simm in
  let check src =
    if not (xml_agrees src) then Alcotest.failf "renderers disagree on %S" src
  in
  (* Every lecture of the five deployed modules, 20 each. *)
  for module_ = 1 to 5 do
    for lecture = 1 to 20 do
      List.iter
        (fun student -> check (Simm.lecture_xml ~module_ ~lecture ~student))
        [ "s1"; ""; "a<b"; "x & y"; "O'Brien" ]
    done
  done;
  let lecture = Simm.lecture_xml ~module_:3 ~lecture:7 ~student:"it's &amp; me" in
  for len = 0 to String.length lecture do
    check (String.sub lecture 0 len)
  done;
  Alcotest.(check string) "render_html is to_html of the lecture"
    (Result.get_ok
       (Ref_xml.render Simm.stylesheet (Simm.lecture_xml ~module_:2 ~lecture:3 ~student:"s")))
    (Simm.render_html ~module_:2 ~lecture:3 ~student:"s")

let test_xml_render_cases () =
  let render src = show_result (Xml.to_html diff_sheet src) in
  let shell s = "Ok <html><body>" ^ s ^ "</body></html>" in
  Alcotest.(check string) "blank text drops, element closes as />"
    (shell "<div class=\"q.r\"/>") (render "<q.r> \n\t\012 </q.r>");
  Alcotest.(check string) "blank CDATA is kept"
    (shell "<div class=\"q.r\"> </div>") (render "<q.r><![CDATA[ ]]></q.r>");
  Alcotest.(check string) "empty CDATA is dropped" (shell "<div class=\"q.r\"/>")
    (render "<q.r><![CDATA[]]></q.r>");
  Alcotest.(check string) "entities round-trip through the fallback"
    (shell "<h1> a &amp;bogus; &lt; &amp; b&apos;</h1>")
    (render "<title> a &bogus; &lt; & b'</title>");
  Alcotest.(check string) "first matching rule wins, class escaped"
    (shell "<em class=\"q&quot;&lt;&amp;&apos;&gt;\">t</em>") (render "<x a='1'>t</x>");
  Alcotest.(check string) "mismatch error" "Error mismatched </b>, expected </a>"
    (render "<a></b>")

(* --- script-facing vocabularies ---------------------------------------- *)

let make_ctx ?(host = Hostcall.stub ()) () =
  let ctx = Interp.create () in
  Platform_v.install_all host ctx;
  Eval_v.install ctx;
  ctx

let run ctx src = Compile.run_string ctx src

(* [Request] and [Response] as they were built before their shapes were
   resolved up front: one [obj_set] per property. The pre-shaped objects
   must be indistinguishable from these. *)
module Ref_http_v = struct
    open Value

    let arg i args = match List.nth_opt args i with Some v -> v | None -> Vundefined

    let sarg i args = to_string (arg i args)

  let install_request ctx (req : Nk_http.Message.request) =
    let o = new_obj () in
    let refresh () =
      obj_set o "url" (Vstr (Nk_http.Url.to_string req.Nk_http.Message.url));
      obj_set o "host" (Vstr req.Nk_http.Message.url.Nk_http.Url.host);
      obj_set o "path" (Vstr req.Nk_http.Message.url.Nk_http.Url.path);
      obj_set o "method" (Vstr (Nk_http.Method_.to_string req.Nk_http.Message.meth));
      obj_set o "clientIP" (Vstr (Nk_http.Ip.to_string req.Nk_http.Message.client.Nk_http.Ip.ip))
    in
    refresh ();
    obj_set o "header"
      (native "header" (fun _ args ->
           match Nk_http.Message.req_header req (sarg 0 args) with
           | Some v -> Vstr v
           | None -> Vnull));
    obj_set o "setHeader"
      (native "setHeader" (fun _ args ->
           Nk_http.Message.set_req_header req (sarg 0 args) (sarg 1 args);
           Vundefined));
    obj_set o "setUrl"
      (native "setUrl" (fun _ args ->
           (match Nk_http.Url.parse (sarg 0 args) with
            | Ok url -> req.Nk_http.Message.url <- url
            | Error e -> error "setUrl: %s" e);
           refresh ();
           Vundefined));
    obj_set o "setMethod"
      (native "setMethod" (fun _ args ->
           req.Nk_http.Message.meth <- Nk_http.Method_.of_string (sarg 0 args);
           refresh ();
           Vundefined));
    obj_set o "cookie"
      (native "cookie" (fun _ args ->
           match Nk_http.Message.req_header req "Cookie" with
           | None -> Vnull
           | Some header -> (
             match List.assoc_opt (sarg 0 args) (Nk_http.Cookie.parse header) with
             | Some v -> Vstr v
             | None -> Vnull)));
    obj_set o "query"
      (native "query" (fun _ args ->
           match Nk_http.Url.query_get req.Nk_http.Message.url (sarg 0 args) with
           | Some v -> Vstr v
           | None -> Vnull));
    obj_set o "terminate"
      (native "terminate" (fun _ args ->
           let status = match arg 0 args with Vundefined -> 403 | v -> to_int v in
           raise (Http_v.Terminate_request (Nk_http.Message.error_response status))));
    obj_set o "redirect"
      (native "redirect" (fun _ args ->
           let target = sarg 0 args in
           let resp =
             Nk_http.Message.response ~status:302 ~headers:[ ("Location", target) ] ()
           in
           raise (Http_v.Terminate_request resp)));
    obj_set o "respond"
      (native "respond" (fun _ args ->
           let status = to_int (arg 0 args) in
           let content_type = sarg 1 args in
           let body = match arg 2 args with Vbytes b -> bytes_to_string b | v -> to_string v in
           let resp =
             Nk_http.Message.response ~status
               ~headers:[ ("Content-Type", content_type) ]
               ~body ()
           in
           raise (Http_v.Terminate_request resp)));
    Nk_script.Interp.define_global ctx "Request" (Vobj o)


  let install_response ctx (resp : Nk_http.Message.response) =
    let sink = Buffer.create 256 in
    let o = new_obj () in
    let unread = ref (Nk_http.Body.to_string resp.Nk_http.Message.resp_body) in
    obj_set o "status" (Vnum (float_of_int resp.Nk_http.Message.status));
    obj_set o "contentType"
      (match Nk_http.Message.content_type resp with Some ct -> Vstr ct | None -> Vnull);
    obj_set o "contentLength" (Vnum (float_of_int (Nk_http.Message.content_length resp)));
    obj_set o "read"
      (native "read" (fun _ _ ->
           let body = !unread in
           unread := "";
           if body = "" then Vnull else Vstr body));
    obj_set o "rewind"
      (native "rewind" (fun _ _ ->
           unread := Nk_http.Body.to_string resp.Nk_http.Message.resp_body;
           Vundefined));
    obj_set o "write"
      (native "write" (fun _ args ->
           (match arg 0 args with
            | Vbytes b -> Buffer.add_string sink (bytes_to_string b)
            | v -> Buffer.add_string sink (to_string v));
           Vundefined));
    obj_set o "getHeader"
      (native "getHeader" (fun _ args ->
           match Nk_http.Message.resp_header resp (sarg 0 args) with
           | Some v -> Vstr v
           | None -> Vnull));
    obj_set o "setHeader"
      (native "setHeader" (fun _ args ->
           Nk_http.Message.set_resp_header resp (sarg 0 args) (sarg 1 args);
           (* Keep the snapshot property coherent for subsequent reads. *)
           if String.lowercase_ascii (sarg 0 args) = "content-type" then
             obj_set o "contentType" (Vstr (sarg 1 args));
           Vundefined));
    obj_set o "setStatus"
      (native "setStatus" (fun _ args ->
           resp.Nk_http.Message.status <- to_int (arg 0 args);
           obj_set o "status" (Vnum (float_of_int resp.Nk_http.Message.status));
           Vundefined));
    Nk_script.Interp.define_global ctx "Response" (Vobj o)
end

(* Everything a script can observe about a global's properties: the
   keys, the data values, and which native each method is. *)
let snapshot ctx name =
  match Interp.get_global ctx name with
  | Some (Value.Vobj o) ->
    List.map
      (fun k ->
        let v =
          match Value.obj_get o k with
          | Value.Vfun (Value.Native_fn f) -> "native " ^ f.Value.nname
          | Value.Vstr s -> "string " ^ s
          | Value.Vnum f -> Printf.sprintf "number %h" f
          | v -> Value.type_name v ^ " " ^ Value.to_string v
        in
        (k, v))
      (Value.obj_keys o)
  | _ -> Alcotest.failf "no %s object" name

let snapshots = Alcotest.(list (pair string string))

(* Run the same scripts against the reference globals and the real ones,
   each over its own copy of the messages, comparing after every step. *)
let test_message_globals_match_reference () =
  let fresh () =
    let req =
      Core.Http.Message.request
        ~client:{ Core.Http.Ip.ip = Core.Http.Ip.of_string_exn "10.1.2.3"; hostname = None }
        "http://a.org:8080/p?k=v&e"
    in
    let resp =
      Core.Http.Message.response ~headers:[ ("Content-Type", "text/xml") ] ~body:"<a/>" ()
    in
    (req, resp)
  in
  List.iter
    (fun steps ->
      let ref_ctx = make_ctx () and new_ctx = make_ctx () in
      let ref_req, ref_resp = fresh () and new_req, new_resp = fresh () in
      Ref_http_v.install_request ref_ctx ref_req;
      Ref_http_v.install_response ref_ctx ref_resp;
      Http_v.install_request new_ctx new_req;
      ignore (Http_v.install_response new_ctx new_resp);
      List.iter
        (fun script ->
          ignore (run ref_ctx script);
          ignore (run new_ctx script);
          List.iter
            (fun name ->
              Alcotest.check snapshots (name ^ " after " ^ script) (snapshot ref_ctx name)
                (snapshot new_ctx name))
            [ "Request"; "Response" ];
          Alcotest.(check string) ("url after " ^ script)
            (Core.Http.Url.to_string ref_req.Core.Http.Message.url)
            (Core.Http.Url.to_string new_req.Core.Http.Message.url);
          Alcotest.(check int) ("status after " ^ script) ref_resp.Core.Http.Message.status
            new_resp.Core.Http.Message.status)
        ("" :: steps))
    [
      [ "Request.setUrl(\"http://B.org/q?x=1&y&z=\")"; "Request.setMethod(\"post\")" ];
      [ "Request.setHeader(\"X\", \"1\")"; "Request.setMethod(\"PUT\")" ];
      [ "delete Request.host"; "Request.setUrl(\"http://c.org/\")" ];
      [ "Request.extra = 1"; "Request.url = \"shadow\""; "Request.setMethod(\"HEAD\")" ];
      [ "Response.setHeader(\"content-TYPE\", \"a/b\")"; "Response.setStatus(404)" ];
      [
        "Response.setHeader(\"X-Other\", \"1\")"; "delete Response.status";
        "Response.setStatus(201)";
      ];
    ]

let test_kept_request_is_the_old_request () =
  let ctx = make_ctx () in
  Http_v.install_request ctx (Core.Http.Message.request "http://first.org/a");
  ignore (run ctx "var kept = Request;");
  Http_v.install_request ctx (Core.Http.Message.request "http://second.org/b");
  Alcotest.(check string) "kept" "http://first.org/a" (Value.to_string (run ctx "kept.url"));
  Alcotest.(check string) "current" "http://second.org/b" (Value.to_string (run ctx "Request.url"));
  ignore (run ctx "kept.setUrl(\"http://third.org/c\")");
  Alcotest.(check string) "kept setUrl" "third.org" (Value.to_string (run ctx "kept.host"));
  Alcotest.(check string) "current unchanged" "second.org"
    (Value.to_string (run ctx "Request.host"))

let test_request_global () =
  let ctx = make_ctx () in
  let req =
    Core.Http.Message.request
      ~headers:[ ("User-Agent", "TestAgent"); ("Cookie", "sid=xyz") ]
      ~client:{ Core.Http.Ip.ip = Core.Http.Ip.of_string_exn "10.1.2.3"; hostname = None }
      "http://a.org/path?k=v"
  in
  Http_v.install_request ctx req;
  Alcotest.(check string) "url" "http://a.org/path?k=v" (Value.to_string (run ctx "Request.url"));
  Alcotest.(check string) "method" "GET" (Value.to_string (run ctx "Request.method"));
  Alcotest.(check string) "clientIP" "10.1.2.3" (Value.to_string (run ctx "Request.clientIP"));
  Alcotest.(check string) "header" "TestAgent"
    (Value.to_string (run ctx "Request.header(\"user-agent\")"));
  Alcotest.(check string) "cookie" "xyz" (Value.to_string (run ctx "Request.cookie(\"sid\")"));
  Alcotest.(check string) "query" "v" (Value.to_string (run ctx "Request.query(\"k\")"));
  Alcotest.(check bool) "missing header is null" true
    (run ctx "Request.header(\"nope\")" = Value.Vnull)

let test_request_mutation () =
  let ctx = make_ctx () in
  let req = Core.Http.Message.request "http://a.org/old" in
  Http_v.install_request ctx req;
  ignore (run ctx "Request.setUrl(\"http://b.org/new\"); Request.setHeader(\"X\", \"1\")");
  Alcotest.(check string) "url rewritten" "b.org" req.Core.Http.Message.url.Core.Http.Url.host;
  Alcotest.(check (option string)) "header set" (Some "1")
    (Core.Http.Message.req_header req "X");
  Alcotest.(check string) "script sees new url" "http://b.org/new"
    (Value.to_string (run ctx "Request.url"))

let test_request_terminate () =
  let ctx = make_ctx () in
  Http_v.install_request ctx (Core.Http.Message.request "http://a.org/");
  match run ctx "Request.terminate(401)" with
  | exception Http_v.Terminate_request resp ->
    Alcotest.(check int) "401" 401 resp.Core.Http.Message.status
  | _ -> Alcotest.fail "expected Terminate_request"

let test_request_redirect () =
  let ctx = make_ctx () in
  Http_v.install_request ctx (Core.Http.Message.request "http://a.org/");
  match run ctx "Request.redirect(\"http://elsewhere.org/\")" with
  | exception Http_v.Terminate_request resp ->
    Alcotest.(check int) "302" 302 resp.Core.Http.Message.status;
    Alcotest.(check (option string)) "location" (Some "http://elsewhere.org/")
      (Core.Http.Message.resp_header resp "Location")
  | _ -> Alcotest.fail "expected redirect"

let test_response_read_write () =
  let ctx = make_ctx () in
  let resp =
    Core.Http.Message.response ~headers:[ ("Content-Type", "text/html") ] ~body:"hello world" ()
  in
  let sink = Http_v.install_response ctx resp in
  ignore
    (run ctx
       {| var body = "", c;
          while ((c = Response.read()) != null) { body += c; }
          Response.write(body.toUpperCase()); |});
  Http_v.apply_writes sink resp;
  Alcotest.(check string) "rewritten" "HELLO WORLD"
    (Core.Http.Body.to_string resp.Core.Http.Message.resp_body);
  Alcotest.(check (option string)) "content-length updated" (Some "11")
    (Core.Http.Message.resp_header resp "Content-Length")

let test_response_no_write_keeps_body () =
  let ctx = make_ctx () in
  let resp = Core.Http.Message.response ~body:"original" () in
  let sink = Http_v.install_response ctx resp in
  ignore (run ctx "var c = Response.read();");
  Http_v.apply_writes sink resp;
  Alcotest.(check string) "unchanged" "original"
    (Core.Http.Body.to_string resp.Core.Http.Message.resp_body)

let test_response_headers_and_status () =
  let ctx = make_ctx () in
  let resp = Core.Http.Message.response ~headers:[ ("Content-Type", "image/nki") ] ~body:"x" () in
  ignore (Http_v.install_response ctx resp);
  Alcotest.(check string) "contentType" "image/nki" (Value.to_string (run ctx "Response.contentType"));
  ignore (run ctx "Response.setHeader(\"Content-Type\", \"image/jpeg\"); Response.setStatus(201)");
  Alcotest.(check (option string)) "header" (Some "image/jpeg")
    (Core.Http.Message.content_type resp);
  Alcotest.(check int) "status" 201 resp.Core.Http.Message.status;
  Alcotest.(check string) "snapshot refreshed" "image/jpeg"
    (Value.to_string (run ctx "Response.contentType"))

let test_figure2_end_to_end () =
  (* The full Fig. 2 handler against a real oversized NKI image. *)
  let ctx = make_ctx () in
  let img = Image.synthesize ~width:352 ~height:416 ~seed:9 in
  let body = Image.encode img Image.Rle in
  let resp =
    Core.Http.Message.response ~headers:[ ("Content-Type", "image/jpeg") ] ~body ()
  in
  Http_v.install_request ctx (Core.Http.Message.request "http://imgs.org/pic.jpg");
  let sink = Http_v.install_response ctx resp in
  ignore
    (run ctx
       {|
var buff = null, body = new ByteArray();
while ((buff = Response.read()) != null) { body.append(buff); }
var type = ImageTransformer.type(Response.contentType);
var dim = ImageTransformer.dimensions(body, type);
if (dim.x > 176 || dim.y > 208) {
  var img;
  if (dim.x / 176 > dim.y / 208) {
    img = ImageTransformer.transform(body, type, "jpeg", 176, dim.y / dim.x * 208);
  } else {
    img = ImageTransformer.transform(body, type, "jpeg", dim.x / dim.y * 176, 208);
  }
  Response.setHeader("Content-Type", "image/jpeg");
  Response.setHeader("Content-Length", img.length);
  Response.write(img);
}
|});
  Http_v.apply_writes sink resp;
  let out = Core.Http.Body.to_string resp.Core.Http.Message.resp_body in
  (match Image.dimensions out with
   | Some (w, h) ->
     Alcotest.(check bool) "fits phone screen" true (w <= 176 && h <= 208);
     Alcotest.(check bool) "nontrivial" true (w > 0 && h > 0)
   | None -> Alcotest.fail "output is not NKI");
  Alcotest.(check bool) "smaller than input" true (String.length out < String.length body)

let test_system_vocab () =
  let base = Hostcall.stub () in
  let host =
    { base with
      Hostcall.now = (fun () -> 123.5);
      is_local = (fun ip -> ip = "10.0.0.1");
      congestion = (fun r -> if r = "cpu" then 0.75 else 0.0);
    }
  in
  let ctx = make_ctx ~host () in
  Alcotest.(check (float 1e-9)) "time" 123.5 (Value.to_number (run ctx "System.time()"));
  Alcotest.(check bool) "local" true (Value.truthy (run ctx "System.isLocal(\"10.0.0.1\")"));
  Alcotest.(check bool) "not local" false (Value.truthy (run ctx "System.isLocal(\"8.8.8.8\")"));
  Alcotest.(check (float 1e-9)) "congestion" 0.75 (Value.to_number (run ctx "System.congestion(\"cpu\")"))

let test_hardstate_vocab () =
  let ctx = make_ctx () in
  ignore (run ctx "HardState.put(\"user:1\", \"alice\")");
  Alcotest.(check string) "get" "alice" (Value.to_string (run ctx "HardState.get(\"user:1\")"));
  Alcotest.(check bool) "missing is null" true (run ctx "HardState.get(\"nope\")" = Value.Vnull);
  ignore (run ctx "HardState.put(\"user:2\", \"bob\")");
  Alcotest.(check (float 1e-9)) "keys" 2.0 (Value.to_number (run ctx "HardState.keys(\"user:\").length"));
  ignore (run ctx "HardState.remove(\"user:1\")");
  Alcotest.(check bool) "removed" true (run ctx "HardState.get(\"user:1\")" = Value.Vnull)

let test_fetch_vocab () =
  let fetched = ref [] in
  let base = Hostcall.stub () in
  let host =
    { base with
      Hostcall.fetch =
        (fun req ->
          fetched := Core.Http.Url.to_string req.Core.Http.Message.url :: !fetched;
          Core.Http.Message.response
            ~headers:[ ("Content-Type", "text/plain") ]
            ~body:"fragment" ());
    }
  in
  let ctx = make_ctx ~host () in
  Alcotest.(check string) "body" "fragment"
    (Value.to_string (run ctx "fetchResource(\"http://x.org/frag\").body"));
  Alcotest.(check (float 1e-9)) "status" 200.0
    (Value.to_number (run ctx "fetchResource(\"http://x.org/frag\").status"));
  Alcotest.(check bool) "host saw requests" true (List.length !fetched = 2)

let test_crypto_vocab () =
  let ctx = make_ctx () in
  Alcotest.(check string) "sha256"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Value.to_string (run ctx "Crypto.sha256(\"abc\")"))

let test_regex_vocab () =
  let ctx = make_ctx () in
  Alcotest.(check bool) "test" true (Value.truthy (run ctx "Regex.test(\"\\\\d+\", \"abc123\")"));
  Alcotest.(check string) "find" "123" (Value.to_string (run ctx "Regex.find(\"\\\\d+\", \"abc123\")"));
  Alcotest.(check string) "replace" "abcN"
    (Value.to_string (run ctx "Regex.replace(\"\\\\d+\", \"N\", \"abc123\")"));
  Alcotest.(check (float 1e-9)) "split" 3.0
    (Value.to_number (run ctx "Regex.split(\",\", \"a,b,c\").length"))

let test_regex_vocab_backtracking_charged () =
  (* Matcher steps are fuel: catastrophic backtracking runs the script
     out of fuel instead of running for seconds on 8 fuel. *)
  let ctx = Interp.create ~max_fuel:100_000 () in
  Platform_v.install_all (Hostcall.stub ()) ctx;
  match run ctx "Regex.test(\"(a*)*b\", \"aaaaaaaaaaaaaaaaaaaaaaaa\")" with
  | _ -> Alcotest.fail "the match must exhaust the fuel"
  | exception Interp.Resource_exhausted _ -> ()

let test_regex_vocab_pattern_cache_bounded () =
  (* A script cycling through distinct patterns under a 1 MiB sandbox
     heap: the context's compiled-pattern table stays bounded, so the
     OCaml heap does not grow by every pattern ever compiled. *)
  let ctx = Interp.create ~max_heap_bytes:(1024 * 1024) () in
  Platform_v.install_all (Hostcall.stub ()) ctx;
  let request n =
    Interp.reset_usage ctx;
    ignore
      (run ctx
         (Printf.sprintf
            "for (var i = 0; i < 20000; i++) { Regex.test(\"r%d_\" + i, \"x\"); }" n))
  in
  request 0;
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  request 1;
  request 2;
  Gc.full_major ();
  let grown = ((Gc.stat ()).Gc.live_words - before) * (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew by %d bytes over 40,000 patterns" grown)
    true
    (grown < 4 * 1024 * 1024);
  Alcotest.(check bool) "context still usable" true
    (Value.truthy (run ctx "Regex.test(\"x\", \"x\")"))

let test_xml_vocab_script () =
  let ctx = make_ctx () in
  Alcotest.(check string) "parse name" "root"
    (Value.to_string (run ctx "Xml.parse(\"<root><c>t</c></root>\").name"));
  Alcotest.(check string) "text" "t"
    (Value.to_string (run ctx "Xml.text(Xml.parse(\"<root><c>t</c></root>\"))"));
  Alcotest.(check bool) "bad xml is null" true (run ctx "Xml.parse(\"<broken\")" = Value.Vnull);
  let html = Value.to_string (run ctx "Xml.toHtml(\"<doc><p>x</p></doc>\", { doc: \"main\", p: \"p\" })") in
  Alcotest.(check bool) "transform" true (Core.Util.Strutil.contains_sub html ~sub:"<main>")

let test_eval_vocab () =
  let ctx = make_ctx () in
  Alcotest.(check (float 1e-9)) "eval" 7.0 (Value.to_number (run ctx "evalScript(\"3 + 4\")"));
  (* evalScript shares the sandbox: globals persist. *)
  ignore (run ctx "evalScript(\"var shared = 5;\")");
  Alcotest.(check (float 1e-9)) "shared global" 5.0 (Value.to_number (run ctx "shared"))

let test_cache_vocab () =
  let table : (string, Core.Http.Message.response) Hashtbl.t = Hashtbl.create 4 in
  let base = Hostcall.stub () in
  let host =
    { base with
      Hostcall.cache_lookup = (fun key -> Hashtbl.find_opt table key);
      cache_store = (fun ~key ~ttl:_ resp -> Hashtbl.replace table key resp);
    }
  in
  let ctx = make_ctx ~host () in
  Alcotest.(check bool) "miss" true (run ctx "Cache.lookup(\"k\")" = Value.Vnull);
  ignore (run ctx "Cache.store(\"k\", \"text/plain\", \"cached!\", 60)");
  Alcotest.(check string) "hit" "cached!" (Value.to_string (run ctx "Cache.lookup(\"k\").body"))

(* The text scan reads eight bytes at a time and finishes with a class
   table: put each markup byte, and bytes one bit away from one, at
   every offset of a word and in the source's last bytes, in text,
   CDATA and attribute position. *)
let test_xml_word_scan_sweep () =
  let specials = [ '<'; '>'; '&'; '"'; '\'' ] in
  let near_misses =
    [ "="; "?"; "#"; "$"; "%"; "!"; "\xa2"; "\xa6"; "\xa7"; "\xbc"; "\xbe"; "\xc3\xa9" ]
  in
  let filler len = String.init len (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let with_at len off piece =
    let base = filler len in
    String.sub base 0 off ^ piece ^ String.sub base off (len - off)
  in
  let check_doc src =
    if not (xml_agrees src) then
      Alcotest.failf "renderers disagree on %S:\n  %s\n  %s" src
        (show_result (Xml.to_html diff_sheet src))
        (show_result (Ref_xml.render diff_sheet src))
  in
  let check_run run =
    check_doc ("<x>" ^ run ^ "</x>");
    check_doc ("<para>" ^ run ^ "<y/>" ^ run ^ "</para>");
    check_doc ("<x><![CDATA[" ^ run ^ "]]></x>");
    (* the run ends in the source's last 1-7 bytes: unterminated *)
    for tail = 1 to 7 do
      check_doc ("<x>" ^ run ^ filler tail)
    done;
    let buf = Buffer.create 64 in
    Ref_xml.escape_into buf run;
    Alcotest.(check string) (Printf.sprintf "escape %S" run) (Buffer.contents buf)
      (Xml.escape run);
    if Buffer.contents buf = run then
      Alcotest.(check bool) (Printf.sprintf "escape %S is the input" run) true
        (Xml.escape run == run);
    let node = Xml.Element ("x", [ ("k", run) ], [ Xml.Text run ]) in
    let buf = Buffer.create 64 in
    Ref_xml.serialize_into buf node;
    Alcotest.(check string) (Printf.sprintf "serialize %S" run) (Buffer.contents buf)
      (Xml.serialize node)
  in
  for len = 0 to 24 do
    check_run (filler len);
    check_run (" \n" ^ filler len)
  done;
  let pieces = List.map (String.make 1) specials @ near_misses in
  List.iter
    (fun piece ->
      for off = 0 to 17 do
        List.iter (fun len -> check_run (with_at len off piece)) [ off; off + 1; off + 7; 24 ]
      done)
    pieces;
  (* a markup byte among near misses in the same word *)
  List.iter
    (fun c ->
      List.iter
        (fun miss -> check_run (miss ^ "ab" ^ String.make 1 c ^ miss ^ filler 9))
        near_misses)
    specials

(* [Response.write] keeps what it is given: one write is the body. *)
let test_response_write_one_copy () =
  let written ?(setup = fun _ -> ()) src =
    let ctx = make_ctx () in
    let resp = Core.Http.Message.response ~body:"original" () in
    let sink = Http_v.install_response ctx resp in
    setup ctx;
    ignore (run ctx src);
    (sink, resp)
  in
  let body resp = Core.Http.Body.to_string resp.Core.Http.Message.resp_body in
  let length resp = Core.Http.Message.resp_header resp "Content-Length" in
  let page = String.make 9000 'p' in
  let sink, resp =
    written ~setup:(fun ctx -> Interp.define_global ctx "page" (Value.Vstr page)) "Response.write(page)"
  in
  Http_v.apply_writes sink resp;
  Alcotest.(check bool) "one write is the body itself" true (body resp == page);
  let sink, resp = written {| Response.write("ab"); Response.write(""); Response.write("cd") |} in
  Http_v.apply_writes sink resp;
  Alcotest.(check string) "writes join into one body" "abcd" (body resp);
  Alcotest.(check (option string)) "joined length" (Some "4") (length resp);
  let data = Value.bytes_of_string "bytes" in
  let sink, resp =
    written ~setup:(fun ctx -> Interp.define_global ctx "b" (Value.Vbytes data)) "Response.write(b)"
  in
  Bytes.set data.Value.data 0 'X';
  Http_v.apply_writes sink resp;
  Bytes.set data.Value.data 1 'Y';
  Alcotest.(check string) "a written byte array is copied" "bytes"
    (Core.Http.Body.to_string resp.Core.Http.Message.resp_body);
  let sink, resp = written {| Response.write("") |} in
  Http_v.apply_writes sink resp;
  Alcotest.(check string) "empty write empties the body" "" (body resp);
  Alcotest.(check (option string)) "empty length" (Some "0") (length resp)

let suite =
  [
    Alcotest.test_case "image: raw roundtrip" `Quick test_image_encode_decode_raw;
    Alcotest.test_case "image: rle roundtrip" `Quick test_image_encode_decode_rle;
    Alcotest.test_case "image: header-only dimensions" `Quick test_image_dimensions_peek;
    Alcotest.test_case "image: scaling" `Quick test_image_scale;
    Alcotest.test_case "image: decode errors" `Quick test_image_decode_errors;
    Alcotest.test_case "image: rle cases" `Quick test_rle_roundtrip;
    QCheck_alcotest.to_alcotest rle_roundtrip_prop;
    QCheck_alcotest.to_alcotest transcode_parity_prop;
    QCheck_alcotest.to_alcotest decode_parity_prop;
    Alcotest.test_case "image: mime mapping" `Quick test_image_mime;
    Alcotest.test_case "xml: parse/serialize roundtrip" `Quick test_xml_parse_serialize;
    Alcotest.test_case "xml: entities" `Quick test_xml_entities;
    Alcotest.test_case "xml: prolog and comments" `Quick test_xml_prolog_and_comments;
    Alcotest.test_case "xml: CDATA sections" `Quick test_xml_cdata;
    Alcotest.test_case "xml: malformed documents" `Quick test_xml_errors;
    Alcotest.test_case "xml: find_all" `Quick test_xml_find_all;
    Alcotest.test_case "xml: stylesheet transform" `Quick test_xml_transform;
    Alcotest.test_case "Request global" `Quick test_request_global;
    Alcotest.test_case "Request mutation writes through" `Quick test_request_mutation;
    Alcotest.test_case "Request.terminate (Fig. 5)" `Quick test_request_terminate;
    Alcotest.test_case "Request.redirect" `Quick test_request_redirect;
    Alcotest.test_case "Response read/write cycle" `Quick test_response_read_write;
    Alcotest.test_case "Response without writes keeps body" `Quick
      test_response_no_write_keeps_body;
    Alcotest.test_case "Response headers and status" `Quick test_response_headers_and_status;
    Alcotest.test_case "Fig. 2 transcoding end to end" `Quick test_figure2_end_to_end;
    Alcotest.test_case "System vocabulary" `Quick test_system_vocab;
    Alcotest.test_case "HardState vocabulary" `Quick test_hardstate_vocab;
    Alcotest.test_case "fetchResource" `Quick test_fetch_vocab;
    Alcotest.test_case "Crypto vocabulary" `Quick test_crypto_vocab;
    Alcotest.test_case "Regex vocabulary" `Quick test_regex_vocab;
    Alcotest.test_case "Xml vocabulary" `Quick test_xml_vocab_script;
    Alcotest.test_case "evalScript" `Quick test_eval_vocab;
    Alcotest.test_case "Cache vocabulary" `Quick test_cache_vocab;
    Alcotest.test_case "xml: one-pass render cases" `Quick test_xml_render_cases;
    Alcotest.test_case "xml: SIMM lectures and truncations match the reference" `Quick
      test_xml_simm_lectures;
    QCheck_alcotest.to_alcotest xml_differential_prop;
    Alcotest.test_case "Request/Response objects match the reference" `Quick
      test_message_globals_match_reference;
    Alcotest.test_case "a kept Request is the old request" `Quick
      test_kept_request_is_the_old_request;
    Alcotest.test_case "Regex: matcher steps are charged as fuel" `Quick
      test_regex_vocab_backtracking_charged;
    Alcotest.test_case "Regex: compiled-pattern table is bounded" `Quick
      test_regex_vocab_pattern_cache_bounded;
    Alcotest.test_case "xml: word-at-a-time scan sweep matches the reference" `Quick
      test_xml_word_scan_sweep;
    Alcotest.test_case "Response.write keeps one write as the body" `Quick
      test_response_write_one_copy;
  ]
