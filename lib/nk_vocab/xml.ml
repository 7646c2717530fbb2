type node = Element of string * (string * string) list * node list | Text of string

(* --- word-at-a-time scanning ------------------------------------------ *)

(* Text runs are long and markup characters rare, so the scan for the
   next one reads eight bytes at a time. A byte is zero in
   [x land 0xFD.. lxor 0x3C..] exactly when it is '<' or '>' (they
   differ only in bit 1), in [x land 0xFE.. lxor 0x26..] when it is '&'
   or '\'' (bit 0), and in [x lxor 0x22..] when it is '"'. The classic
   has-zero-byte test then answers "any of the five in this word?"
   exactly, whatever the byte order. *)
let lows = 0x0101010101010101L

let highs = 0x8080808080808080L

let[@inline] zero_byte x = Int64.logand (Int64.logand (Int64.sub x lows) (Int64.lognot x)) highs

let[@inline] has_markup w =
  let lt_gt = Int64.logxor (Int64.logand w 0xFDFDFDFDFDFDFDFDL) 0x3C3C3C3C3C3C3C3CL in
  let amp_apos = Int64.logxor (Int64.logand w 0xFEFEFEFEFEFEFEFEL) 0x2626262626262626L in
  let quot = Int64.logxor w 0x2222222222222222L in
  Int64.logor (Int64.logor (zero_byte lt_gt) (zero_byte amp_apos)) (zero_byte quot) <> 0L

(* The same five bytes as a class table: it finishes a tail shorter
   than a word and pinpoints the hit inside a word. *)
let markup_class =
  let t = Bytes.make 256 '\000' in
  String.iter (fun c -> Bytes.set t (Char.code c) '\001') "<>&\"'";
  Bytes.unsafe_to_string t

let[@inline] is_markup c = String.unsafe_get markup_class (Char.code c) <> '\000'

(* The first markup character in [s.[i..stop)], or [stop]. *)
let next_markup s i stop =
  let i = ref i in
  while !i + 8 <= stop && not (has_markup (String.get_int64_le s !i)) do
    i := !i + 8
  done;
  while !i < stop && not (is_markup (String.unsafe_get s !i)) do
    incr i
  done;
  !i

let entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '"' -> "&quot;"
  | _ -> "&apos;"

(* Append [s.[start..stop)] to [buf], escaping markup characters.
   Unescaped runs are copied with a single [add_substring] per run
   rather than char by char. *)
let escape_sub buf s start stop =
  let seg = ref start in
  let i = ref (next_markup s start stop) in
  while !i < stop do
    Buffer.add_substring buf s !seg (!i - !seg);
    Buffer.add_string buf (entity (String.unsafe_get s !i));
    seg := !i + 1;
    i := next_markup s !seg stop
  done;
  Buffer.add_substring buf s !seg (stop - !seg)

let escape_into buf s = escape_sub buf s 0 (String.length s)

let escape s =
  (* Most text nodes contain no markup characters: return the input
     itself rather than round-tripping through a Buffer. *)
  if next_markup s 0 (String.length s) = String.length s then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    escape_into buf s;
    Buffer.contents buf
  end

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

(* --- the scanner ------------------------------------------------------ *)

(* One scanner holds the element grammar and every error message.
   [parse] and [to_html] are two consumers of it: the first builds a
   tree, the second writes HTML while the source is being read. The
   scanner hands out spans of the source (start and length) instead of
   substrings, so a consumer that only compares or copies them
   allocates nothing. *)

exception Xml_error of string

type parser_state = { src : string; mutable pos : int }

type ('e, 'r) consumer = {
  start : int -> int -> 'e;  (** an element opens; its name is the span *)
  attr : 'e -> int -> int -> int -> int -> unit;
      (** attribute name span, then raw (still entity-encoded) value span *)
  text : 'e -> int -> int;
      (** a text run begins here (never at '<'); consume it and return
          where it ends: the next '<' or the end of input *)
  cdata : 'e -> int -> int -> unit;  (** a non-empty CDATA body, [start, stop) *)
  child : 'e -> 'r -> unit;  (** a child element is complete *)
  finish : 'e -> 'r;  (** the element closes *)
}

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Whitespace for dropping blank text: [String.trim]'s set, which also
   has form feed. *)
let is_blank = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false

(* The scanning loops below index the source directly instead of going
   through an option-returning [peek]: [Some c] allocates, and these
   loops run once per character of the document. *)
let at st c = st.pos < String.length st.src && String.unsafe_get st.src st.pos = c

let skip_spaces st =
  let src = st.src in
  let n = String.length src in
  while st.pos < n && is_space (String.unsafe_get src st.pos) do
    st.pos <- st.pos + 1
  done

(* Allocation-free equivalent of [String.trim s <> ""]. *)
let has_non_space s =
  let n = String.length s in
  let rec go i = i < n && ((not (is_blank (String.unsafe_get s i))) || go (i + 1)) in
  go 0

(* [a.[i..i+len)] = [b.[j..j+len)], both spans in bounds. A loop, not
   a local recursive function: that would allocate a closure per call,
   and the renderer calls this for every rule it tries. *)
let sub_equal a i b j len =
  let k = ref 0 in
  while !k < len && String.unsafe_get a (i + !k) = String.unsafe_get b (j + !k) do
    incr k
  done;
  !k = len

let starts_at src pos s =
  pos + String.length s <= String.length src && sub_equal src pos s 0 (String.length s)

(* End of the text run starting at [pos]: the next '<' or the end. *)
let text_end src pos =
  match String.index_from_opt src pos '<' with Some i -> i | None -> String.length src

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-'
  || c = '_' || c = ':' || c = '.'

(* Advance over a name; return where it starts. *)
let read_name st =
  let src = st.src in
  let n = String.length src in
  let start = st.pos in
  while st.pos < n && is_name_char (String.unsafe_get src st.pos) do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then raise (Xml_error (Printf.sprintf "expected name at %d" st.pos));
  start

let expect st c =
  if at st c then st.pos <- st.pos + 1
  else raise (Xml_error (Printf.sprintf "expected '%c' at %d" c st.pos))

let skip_until st marker =
  match Nk_util.Strutil.index_sub st.src ~sub:marker ~start:st.pos with
  | Some i -> st.pos <- i + String.length marker
  | None -> raise (Xml_error ("unterminated " ^ marker))

let rec scan_attributes st c e =
  skip_spaces st;
  let src = st.src in
  if st.pos < String.length src && is_name_char (String.unsafe_get src st.pos) then begin
    let name = read_name st in
    let name_len = st.pos - name in
    skip_spaces st;
    expect st '=';
    skip_spaces st;
    let quote =
      if at st '"' || at st '\'' then begin
        st.pos <- st.pos + 1;
        src.[st.pos - 1]
      end
      else raise (Xml_error "expected quoted attribute value")
    in
    let value = st.pos in
    let n = String.length src in
    while st.pos < n && String.unsafe_get src st.pos <> quote do
      st.pos <- st.pos + 1
    done;
    expect st quote;
    c.attr e name name_len value (st.pos - 1 - value);
    scan_attributes st c e
  end

let rec scan_element st c =
  expect st '<';
  let name = read_name st in
  let name_len = st.pos - name in
  let e = c.start name name_len in
  scan_attributes st c e;
  skip_spaces st;
  if at st '/' then begin
    st.pos <- st.pos + 1;
    expect st '>'
  end
  else if at st '>' then begin
    st.pos <- st.pos + 1;
    scan_children st c e name name_len
  end
  else
    raise
      (Xml_error
         (Printf.sprintf "malformed tag <%s> at %d" (String.sub st.src name name_len) st.pos));
  c.finish e

and scan_children st c e name name_len =
  let src = st.src in
  let n = String.length src in
  if st.pos >= n then
    raise (Xml_error (Printf.sprintf "unterminated element <%s>" (String.sub src name name_len)))
  else if String.unsafe_get src st.pos <> '<' then begin
    st.pos <- c.text e st.pos;
    scan_children st c e name name_len
  end
  else if st.pos + 1 >= n then raise (Xml_error "stray '<' at end of input")
  else
    match src.[st.pos + 1] with
    | '/' ->
      st.pos <- st.pos + 2;
      let close = read_name st in
      let close_len = st.pos - close in
      skip_spaces st;
      expect st '>';
      if not (close_len = name_len && sub_equal src close src name name_len) then
        raise
          (Xml_error
             (Printf.sprintf "mismatched </%s>, expected </%s>" (String.sub src close close_len)
                (String.sub src name name_len)))
    | '!' ->
      if starts_at src st.pos "<!--" then skip_until st "-->"
      else if starts_at src st.pos "<![CDATA[" then begin
        (* CDATA: verbatim text, no entity processing *)
        let start = st.pos + 9 in
        skip_until st "]]>";
        if st.pos - 3 > start then c.cdata e start (st.pos - 3)
      end
      else skip_until st ">";
      scan_children st c e name name_len
    | '?' ->
      skip_until st "?>";
      scan_children st c e name name_len
    | _ ->
      c.child e (scan_element st c);
      scan_children st c e name name_len

(* The whole document: prolog (declarations, comments, doctype), one
   root element, nothing after it but whitespace. *)
let scan c src =
  let st = { src; pos = 0 } in
  skip_spaces st;
  let rec skip_prolog () =
    if st.pos + 1 < String.length src && src.[st.pos] = '<' then
      match src.[st.pos + 1] with
      | '?' ->
        skip_until st "?>";
        skip_spaces st;
        skip_prolog ()
      | '!' ->
        skip_until st (if starts_at src st.pos "<!--" then "-->" else ">");
        skip_spaces st;
        skip_prolog ()
      | _ -> ()
  in
  skip_prolog ();
  let root = scan_element st c in
  skip_spaces st;
  if st.pos <> String.length src then raise (Xml_error "trailing content after root element");
  root

(* --- tree consumer ---------------------------------------------------- *)

type open_element = {
  name : string;
  mutable attrs : (string * string) list;
  mutable kids : node list;
}

let parse src =
  let sub start len = String.sub src start len in
  let tree =
    {
      start = (fun name len -> { name = sub name len; attrs = []; kids = [] });
      attr =
        (fun e name len value value_len ->
          e.attrs <- (sub name len, unescape (sub value value_len)) :: e.attrs);
      text =
        (fun e pos ->
          let stop = text_end src pos in
          let t = unescape (sub pos (stop - pos)) in
          if has_non_space t then e.kids <- Text t :: e.kids;
          stop);
      cdata = (fun e start stop -> e.kids <- Text (sub start (stop - start)) :: e.kids);
      child = (fun e node -> e.kids <- node :: e.kids);
      finish = (fun e -> Element (e.name, List.rev e.attrs, List.rev e.kids));
    }
  in
  try Ok (scan tree src) with Xml_error msg -> Error msg

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

let serialize node =
  let buf = Buffer.create 256 in
  serialize_into buf node;
  Buffer.contents buf

let rec text_content = function
  | Text t -> t
  | Element (_, _, children) -> String.concat "" (List.map text_content children)

let find_all node tag =
  let rec go acc node =
    match node with
    | Text _ -> acc
    | Element (name, _, children) ->
      let acc = if name = tag then node :: acc else acc in
      List.fold_left go acc children
  in
  List.rev (go [] node)

(* --- HTML consumer ---------------------------------------------------- *)

type rule = { tag : string; html_tag : string; html_class : string option }

type stylesheet = rule list

(* An element's '>' is written lazily, when its first child or first
   non-blank text arrives: an element that gets neither closes as "/>",
   exactly as serializing a childless node would. *)
type html_out = { buf : Buffer.t; mutable pending : bool }

let open_content out =
  if out.pending then begin
    Buffer.add_char out.buf '>';
    out.pending <- false
  end

(* Render the text run at [pos] in one pass: leading blanks are held
   back until a non-blank character shows the run is kept, the run is
   copied a segment at a time between markup characters (found a word
   at a time), those are escaped as they are met, and the run ends at
   '<'. A run with an entity reference falls back, from its first '&',
   to unescape-then-escape: everything before that '&' is literal, so
   the result is the same as unescaping the whole run. *)
let render_text out src pos =
  let n = String.length src in
  let i = ref pos in
  while !i < n && is_blank (String.unsafe_get src !i) do
    incr i
  done;
  if !i >= n || String.unsafe_get src !i = '<' then !i
  else begin
    open_content out;
    let buf = out.buf in
    let seg = ref pos in
    let stop = ref (-1) in
    while !stop < 0 do
      i := next_markup src !i n;
      if !i >= n then stop := n
      else
        match String.unsafe_get src !i with
        | '<' -> stop := !i
        | '&' ->
          Buffer.add_substring buf src !seg (!i - !seg);
          let e = text_end src !i in
          escape_into buf (unescape_slow (String.sub src !i (e - !i)));
          seg := e;
          stop := e
        | c ->
          Buffer.add_substring buf src !seg (!i - !seg);
          Buffer.add_string buf (entity c);
          incr i;
          seg := !i
    done;
    Buffer.add_substring buf src !seg (!stop - !seg);
    !stop
  end

let to_html ?buf sheet src =
  let buf =
    match buf with
    | Some b ->
      Buffer.clear b;
      b
    | None -> Buffer.create (String.length src + 64)
  in
  let out = { buf; pending = false } in
  let rec find_rule name len = function
    | [] -> None
    | r :: rest ->
      if String.length r.tag = len && sub_equal src name r.tag 0 len then Some r
      else find_rule name len rest
  in
  let html =
    {
      start =
        (fun name len ->
          open_content out;
          Buffer.add_char buf '<';
          let tag =
            match find_rule name len sheet with
            | Some r ->
              Buffer.add_string buf r.html_tag;
              (match r.html_class with
               | Some cls ->
                 Buffer.add_string buf " class=\"";
                 escape_into buf cls;
                 Buffer.add_char buf '"'
               | None -> ());
              r.html_tag
            | None ->
              Buffer.add_string buf "div class=\"";
              escape_sub buf src name (name + len);
              Buffer.add_char buf '"';
              "div"
          in
          out.pending <- true;
          tag);
      attr = (fun _ _ _ _ _ -> ());
      text = (fun _ pos -> render_text out src pos);
      cdata =
        (fun _ start stop ->
          open_content out;
          escape_sub buf src start stop);
      child = (fun _ () -> ());
      finish =
        (fun tag ->
          if out.pending then begin
            Buffer.add_string buf "/>";
            out.pending <- false
          end
          else begin
            Buffer.add_string buf "</";
            Buffer.add_string buf tag;
            Buffer.add_char buf '>'
          end);
    }
  in
  Buffer.add_string buf "<html><body>";
  match scan html src with
  | () ->
    Buffer.add_string buf "</body></html>";
    Ok (Buffer.contents buf)
  | exception Xml_error msg -> Error msg
