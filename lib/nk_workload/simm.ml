type mode = Single_server | Edge

let host = "simm.med.nyu.edu"

let modules = 5

let lectures_per_module = 20

let videos = 25

let video_bytes = 350_000

let video_bitrate = 140_000.0 /. 8.0

let conditions =
  [| "appendicitis"; "cholecystitis"; "diverticulitis"; "pancreatitis"; "hernia" |]

let section_names =
  [| "presentation"; "workup"; "imaging"; "pathology"; "treatment"; "followup" |]

(* The origin builds one of these per lecture request, so the pieces are
   appended directly rather than formatted. *)
let lecture_xml ~module_ ~lecture ~student =
  let buf = Buffer.create 12288 in
  let add = Buffer.add_string buf in
  let condition = conditions.((module_ - 1) mod Array.length conditions) in
  let m = string_of_int module_ and k = string_of_int lecture in
  add "<lecture module=\"";
  add m;
  add "\" number=\"";
  add k;
  add "\" condition=\"";
  add condition;
  add "\"><title>Module ";
  add m;
  add ", Lecture ";
  add k;
  add ": ";
  add condition;
  add "</title><student>";
  add student;
  add "</student>";
  Array.iteri
    (fun si section ->
      add "<section name=\"";
      add section;
      add "\">";
      for para = 1 to 5 do
        add "<para>In the ";
        add section;
        add " phase of ";
        add condition;
        add " (module ";
        add m;
        add ", lecture ";
        add k;
        add ", part ";
        add (string_of_int si);
        Buffer.add_char buf '.';
        add (string_of_int para);
        add
          "), the clinical narrative continues with findings, annotated imaging studies, and \
           guidance tailored to the learner's progress through the curriculum. Review the \
           attached materials before proceeding to the assessment.</para>"
      done;
      add "<assessment section=\"";
      add section;
      add "\" questions=\"4\"/></section>")
    section_names;
  add "</lecture>";
  Buffer.contents buf

let stylesheet =
  [
    { Nk_vocab.Xml.tag = "lecture"; html_tag = "article"; html_class = Some "lecture" };
    { Nk_vocab.Xml.tag = "title"; html_tag = "h1"; html_class = None };
    { Nk_vocab.Xml.tag = "student"; html_tag = "p"; html_class = Some "student" };
    { Nk_vocab.Xml.tag = "section"; html_tag = "section"; html_class = None };
    { Nk_vocab.Xml.tag = "para"; html_tag = "p"; html_class = None };
    { Nk_vocab.Xml.tag = "assessment"; html_tag = "aside"; html_class = Some "assessment" };
  ]

let render_html ~module_ ~lecture ~student =
  match Nk_vocab.Xml.to_html stylesheet (lecture_xml ~module_ ~lecture ~student) with
  | Ok html -> html
  | Error e -> invalid_arg ("Simm.render_html: " ^ e)

(* Deterministic pseudo-media bytes. *)
let video_body k = Nk_util.Prng.bytes (Nk_util.Prng.create (1000 + k)) video_bytes

let query_param (req : Nk_http.Message.request) name =
  Nk_http.Url.query_get req.Nk_http.Message.url name

let parse_lecture_path path =
  (* "/content/m3/lec7.xml" or "/rendered/m3/lec7.html" *)
  match String.split_on_char '/' path with
  | [ ""; _kind; m; lec ] -> (
    let parse_num prefix s suffix =
      if
        Nk_util.Strutil.starts_with ~prefix s
        && Nk_util.Strutil.ends_with ~suffix s
        && String.length s > String.length prefix + String.length suffix
      then
        int_of_string_opt
          (String.sub s (String.length prefix)
             (String.length s - String.length prefix - String.length suffix))
      else None
    in
    match (parse_num "m" m "", parse_num "lec" lec ".xml", parse_num "lec" lec ".html") with
    | Some m, Some k, None -> Some (m, k)
    | Some m, None, Some k -> Some (m, k)
    | _ -> None)
  | _ -> None

let nakika_js =
  Printf.sprintf
    {|
var p = new Policy();
p.url = ["%s/content/"];
p.onResponse = function() {
  if (Response.contentType != "text/xml") { return; }
  var body = "", c;
  while ((c = Response.read()) != null) { body += c; }
  var sheet = { lecture: "article.lecture", title: "h1", student: "p.student",
                section: "section", para: "p", assessment: "aside.assessment" };
  var html = Xml.toHtml(body, sheet);
  Response.setHeader("Content-Type", "text/html");
  Response.write(html);
}
p.register();
|}
    host

let install_origin origin =
  (* Personalized XML: what the edge deployment fetches. *)
  Nk_node.Origin.set_dynamic origin ~prefix:"/content/" ~cpu:0.002 (fun req ->
      match parse_lecture_path req.Nk_http.Message.url.Nk_http.Url.path with
      | None -> Nk_http.Message.error_response 404
      | Some (m, k) ->
        let student = Option.value (query_param req "student") ~default:"anonymous" in
        Nk_http.Message.response
          ~headers:
            [ ("Content-Type", "text/xml"); ("Cache-Control", "max-age=120") ]
          ~body:(lecture_xml ~module_:m ~lecture:k ~student)
          ());
  (* Personalized + rendered HTML: the single-server deployment. *)
  Nk_node.Origin.set_dynamic origin ~prefix:"/rendered/" ~cpu:0.008 (fun req ->
      match parse_lecture_path req.Nk_http.Message.url.Nk_http.Url.path with
      | None -> Nk_http.Message.error_response 404
      | Some (m, k) ->
        let student = Option.value (query_param req "student") ~default:"anonymous" in
        Nk_http.Message.response
          ~headers:
            [ ("Content-Type", "text/html"); ("Cache-Control", "max-age=120") ]
          ~body:(render_html ~module_:m ~lecture:k ~student)
          ());
  for k = 1 to videos do
    Nk_node.Origin.set_static origin
      ~path:(Printf.sprintf "/media/v%d.nkv" k)
      ~content_type:"video/nkv" ~max_age:3600 (video_body k)
  done;
  Nk_node.Origin.set_static origin ~path:"/nakika.js" ~content_type:"text/javascript"
    ~max_age:300 nakika_js


let make_request ~rng ~mode ~student =
  if Nk_util.Prng.int rng 100 < 15 then
    Nk_http.Message.request
      (Printf.sprintf "http://%s/media/v%d.nkv" host (1 + Nk_util.Prng.int rng videos))
  else begin
    let m = 1 + Nk_util.Prng.int rng modules in
    let k = 1 + Nk_util.Prng.int rng lectures_per_module in
    match mode with
    | Single_server ->
      Nk_http.Message.request
        (Printf.sprintf "http://%s/rendered/m%d/lec%d.html?student=%s" host m k student)
    | Edge ->
      Nk_http.Message.request
        (Printf.sprintf "http://%s/content/m%d/lec%d.xml?student=%s" host m k student)
  end

let is_video (req : Nk_http.Message.request) =
  Nk_util.Strutil.starts_with ~prefix:"/media/" req.Nk_http.Message.url.Nk_http.Url.path
