open Nk_script.Value

let rec node_to_value = function
  | Xml.Text t -> Vstr t
  | Xml.Element (name, attrs, children) ->
    let o = new_obj () in
    obj_set o "name" (Vstr name);
    let attrs_obj = new_obj () in
    List.iter (fun (k, v) -> obj_set attrs_obj k (Vstr v)) attrs;
    obj_set o "attrs" (Vobj attrs_obj);
    obj_set o "children" (Varr (new_arr (List.map node_to_value children)));
    Vobj o

let rec value_to_node = function
  | Vstr s -> Xml.Text s
  | Vobj o ->
    let name = match obj_get o "name" with Vstr s -> s | _ -> error "Xml: node needs a name" in
    let attrs =
      match obj_get o "attrs" with
      | Vobj a -> List.map (fun k -> (k, to_string (obj_get a k))) (obj_keys a)
      | Vundefined | Vnull -> []
      | v -> error "Xml: attrs must be an object, got %s" (type_name v)
    in
    let children =
      match obj_get o "children" with
      | Varr a -> List.map value_to_node (arr_to_list a)
      | Vundefined | Vnull -> []
      | v -> error "Xml: children must be an array, got %s" (type_name v)
    in
    Xml.Element (name, attrs, children)
  | v -> error "Xml: expected node object or string, got %s" (type_name v)

let stylesheet_of_value v =
  (* { lecture: "section.lecture", title: "h1" } *)
  match v with
  | Vobj o ->
    List.map
      (fun tag ->
        let spec = to_string (obj_get o tag) in
        match Nk_util.Strutil.split_first '.' spec with
        | Some (html_tag, cls) -> { Xml.tag; html_tag; html_class = Some cls }
        | None -> { Xml.tag; html_tag = spec; html_class = None })
      (obj_keys o)
  | Vundefined | Vnull -> []
  | v -> error "Xml: stylesheet must be an object, got %s" (type_name v)

(* A render buffer that has grown past this is given back after use, so
   one huge page does not pin its size for the context's lifetime. *)
let render_keep_bytes = 65_536

let install ctx =
  let o = new_obj () in
  (* The context's one render buffer: a page then costs only its result
     string. Rendering never yields, so pages cannot interleave in it. *)
  let render = Buffer.create 1024 in
  (* Platform XML work is data-proportional CPU; charge it as fuel so
     it counts against the sandbox and resource accounting. *)
  let charge_bytes s = Nk_script.Interp.consume_fuel ctx (String.length s) in
  obj_set o "parse"
    (native "parse" (fun _ args ->
         let src = to_string (arg 0 args) in
         charge_bytes src;
         match Xml.parse src with
         | Ok node -> node_to_value node
         | Error _ -> Vnull));
  obj_set o "serialize"
    (native "serialize" (fun _ args ->
         let out = Xml.serialize (value_to_node (arg 0 args)) in
         charge_bytes out;
         Vstr out));
  obj_set o "text"
    (native "text" (fun _ args -> Vstr (Xml.text_content (value_to_node (arg 0 args)))));
  obj_set o "findAll"
    (native "findAll" (fun _ args ->
         let node = value_to_node (arg 0 args) in
         let tag = to_string (arg 1 args) in
         Varr (new_arr (List.map node_to_value (Xml.find_all node tag)))));
  obj_set o "toHtml"
    (native "toHtml" (fun _ args ->
         let src = to_string (arg 0 args) in
         (* charged as a parse plus a render, though they run as one pass *)
         Nk_script.Interp.consume_fuel ctx (2 * String.length src);
         let sheet = stylesheet_of_value (arg 1 args) in
         let html = Xml.to_html ~buf:render sheet src in
         if Buffer.length render > render_keep_bytes then Buffer.reset render;
         match html with
         | Ok html -> Vstr html
         | Error e -> error "Xml.toHtml: %s" e));
  obj_set o "escape" (native "escape" (fun _ args -> Vstr (Xml.escape (to_string (arg 0 args)))));
  Nk_script.Interp.define_global ctx "Xml" (Vobj o)
