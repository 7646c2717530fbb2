type span = {
  span_id : int;
  trace_id : int;
  parent_id : int option;
  name : string;
  started : float;
  mutable ended : float option;
  mutable attrs : (string * string) list;
}

type trace = { id : int; root : span; spans : span list }

type t = {
  clock : unit -> float;
  ring : trace Ring.t;
  mutable next_id : int;
  live : (int, span list ref) Hashtbl.t; (* trace id -> spans, newest first *)
}

(* Completed traces retained in the ring buffer. *)
let capacity = 256

let create ~clock () =
  {
    clock;
    ring = Ring.create ~capacity;
    next_id = 1;
    live = Hashtbl.create 16;
  }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record_live t span =
  match Hashtbl.find_opt t.live span.trace_id with
  | Some spans -> spans := span :: !spans
  | None -> Hashtbl.add t.live span.trace_id (ref [ span ])

let start_trace t ?(attrs = []) name =
  let id = fresh_id t in
  let span =
    { span_id = id; trace_id = id; parent_id = None; name; started = t.clock ();
      ended = None; attrs }
  in
  record_live t span;
  span

let start_span t ~parent ?(attrs = []) name =
  let span =
    { span_id = fresh_id t; trace_id = parent.trace_id; parent_id = Some parent.span_id;
      name; started = t.clock (); ended = None; attrs }
  in
  record_live t span;
  span

let set_attr span key value = span.attrs <- span.attrs @ [ (key, value) ]

let finish t span =
  if span.ended = None then begin
    span.ended <- Some (t.clock ());
    if span.parent_id = None then begin
      (* Root closed: the trace is complete; move it into the ring. *)
      let spans =
        match Hashtbl.find_opt t.live span.trace_id with
        | Some spans -> List.rev !spans
        | None -> [ span ]
      in
      Hashtbl.remove t.live span.trace_id;
      Ring.push t.ring { id = span.trace_id; root = span; spans }
    end
  end

let top =
  { span_id = 0; trace_id = 0; parent_id = None; name = ""; started = 0.0; ended = None;
    attrs = [] }

(* No [Fun.protect]: its closures would cost every traced span a few
   words more than the handler below. *)
let child t parent ?attrs name f =
  match parent with
  | None -> f None
  | Some parent ->
    let span =
      if parent == top then start_trace t ?attrs name else start_span t ~parent ?attrs name
    in
    let result = try f (Some span) with e -> finish t span; raise e in
    finish t span;
    result

let set_attr_opt span key value = match span with Some s -> set_attr s key value | None -> ()

let duration span = Option.map (fun e -> e -. span.started) span.ended

let completed t = Ring.count t.ring

let traces t = Ring.to_list t.ring

let slowest t n =
  traces t
  |> List.sort (fun a b ->
         compare
           (Option.value ~default:0.0 (duration b.root))
           (Option.value ~default:0.0 (duration a.root)))
  |> List.filteri (fun i _ -> i < n)

let render trace =
  let buf = Buffer.create 256 in
  let attrs_str span =
    match span.attrs with
    | [] -> ""
    | attrs -> "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
  in
  let dur_str span =
    match duration span with
    | Some d -> Printf.sprintf "%8.2f ms" (1000.0 *. d)
    | None -> "      open"
  in
  let children parent =
    List.filter (fun s -> s.parent_id = Some parent.span_id) trace.spans
  in
  let rec emit depth span =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s%s\n" (String.make (2 * depth) ' ') (dur_str span) span.name
         (attrs_str span));
    List.iter (emit (depth + 1)) (children span)
  in
  Buffer.add_string buf (Printf.sprintf "trace %d · started %.3f\n" trace.id trace.root.started);
  emit 0 trace.root;
  Buffer.contents buf
