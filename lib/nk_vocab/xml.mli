(** XML parsing, serialization, and the small template-rule renderer
    used to turn SIMM-style XML content into HTML (§5.2: personalized
    content "is represented as XML and, before being returned to the
    client, rendered as HTML by an XSL stylesheet").

    {!parse} and {!to_html} share one scanner, so they accept the same
    documents and report the same errors. *)

type node = Element of string * (string * string) list * node list | Text of string

val parse : string -> (node, string) result
(** A single root element; supports attributes, nested elements, text,
    comments, CDATA, XML declarations and processing instructions, and
    the five standard entities. Whitespace-only text is dropped. *)

val serialize : node -> string

val text_content : node -> string
(** Concatenated text of the subtree. *)

val find_all : node -> string -> node list
(** All descendant elements (and the node itself) with the given tag. *)

type rule = { tag : string; html_tag : string; html_class : string option }
(** One template rule: rewrite elements named [tag] into [html_tag]
    (optionally with a class), recursively rendering children. *)

type stylesheet = rule list

val to_html : ?buf:Buffer.t -> stylesheet -> string -> (string, string) result
(** Render an XML source document straight to HTML, in one pass and
    without building a tree. The first rule whose [tag] matches an
    element decides its HTML tag and class; an unmatched element becomes
    a [<div>] with its tag name as the class. Attributes are dropped,
    text passes through re-escaped, and the result is wrapped in an
    [<html><body>] shell. The output is byte-for-byte what serializing
    the rewritten {!parse} tree would give; [Error] carries the message
    {!parse} would return for the same source. [buf], cleared first,
    is the scratch the page is written into: a caller that renders
    many pages passes one, so each page costs only its result string. *)

val escape : string -> string
(** Entity-escape markup characters. Returns the input itself (no
    copy) when nothing needs escaping. *)
