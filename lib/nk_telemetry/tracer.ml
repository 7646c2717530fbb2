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

(* Completed traces, copied out of their span records when the root
   closes into flat arrays that are reused in place. Spans and
   attributes are numbered by how many were stored before them; span
   [i] sits in slot [i land (cap - 1)] of a store of [cap] slots, a
   power of two, so each trace's spans (and attributes) fill a run of
   slots modulo [cap], and a grown store takes over just the retained
   run. *)
type store = {
  mutable count : int; (* traces completed *)
  mutable firsts : int array; (* per trace slot: its first span, its first attribute *)
  mutable spans_end : int; (* the number the next span takes *)
  mutable attrs_end : int;
  mutable ids : int array; (* per span: id, parent id or -1, 2 * attribute count + 1 if open *)
  mutable times : Float.Array.t; (* per span: start, end *)
  mutable names : string array;
  mutable kvs : string array; (* per attribute: key, value *)
}

type t = {
  clock : unit -> float;
  mutable next_id : int;
  mutable live : (int, span list ref) Hashtbl.t;
  (* trace id -> spans, newest first; [no_live] until a span opens *)
  mutable store : store; (* [no_store] until a trace completes *)
}

(* Completed traces retained in the store. *)
let capacity = 256

let empty_store () =
  { count = 0; firsts = [||]; spans_end = 0; attrs_end = 0; ids = [||];
    times = Float.Array.create 0; names = [||]; kvs = [||] }

(* Shared by every tracer that has completed no trace, and never
   written: the first completed trace replaces it. *)
let no_store = empty_store ()

(* Likewise shared by every tracer that has opened no span, and never
   written: the first span replaces it. An untraced node never opens
   one. *)
let no_live : (int, span list ref) Hashtbl.t = Hashtbl.create 1

let create ~clock () = { clock; next_id = 1; live = no_live; store = no_store }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record_live t span =
  if t.live == no_live then t.live <- Hashtbl.create 16;
  match Hashtbl.find_opt t.live span.trace_id with
  | Some spans -> spans := span :: !spans
  | None -> Hashtbl.add t.live span.trace_id (ref [ span ])

(* A live span keeps its attributes newest first. *)
let start_trace t ?(attrs = []) name =
  let id = fresh_id t in
  let span =
    { span_id = id; trace_id = id; parent_id = None; name; started = t.clock ();
      ended = None; attrs = List.rev attrs }
  in
  record_live t span;
  span

let start_span t ~parent ?(attrs = []) name =
  let span =
    { span_id = fresh_id t; trace_id = parent.trace_id; parent_id = Some parent.span_id;
      name; started = t.clock (); ended = None; attrs = List.rev attrs }
  in
  record_live t span;
  span

let set_attr span key value = span.attrs <- (key, value) :: span.attrs

(* Where trace [x]'s first span, then its first attribute, sit in [firsts]. *)
let entry st x = 2 * (x land ((Array.length st.firsts / 2) - 1))

let first_span st x = st.firsts.(entry st x)

let first_attr st x = st.firsts.(entry st x + 1)

(* The smallest power of two, at least [cap] and 1, that holds [need]. *)
let rec grown cap need = if cap >= need then cap else grown (max 1 (2 * cap)) need

(* Make room for [n] more spans while spans [lo..] stay retained. *)
let reserve_spans st ~lo n =
  let old = Array.length st.names in
  let cap = grown old (st.spans_end + n - lo) in
  if cap > old then begin
    let ids = Array.make (3 * cap) 0
    and times = Float.Array.make (2 * cap) 0.0
    and names = Array.make cap "" in
    for i = lo to st.spans_end - 1 do
      let s = i land (old - 1) and d = i land (cap - 1) in
      Array.blit st.ids (3 * s) ids (3 * d) 3;
      Float.Array.blit st.times (2 * s) times (2 * d) 2;
      names.(d) <- st.names.(s)
    done;
    st.ids <- ids;
    st.times <- times;
    st.names <- names
  end

let reserve_attrs st ~lo m =
  let old = Array.length st.kvs / 2 in
  let cap = grown old (st.attrs_end + m - lo) in
  if cap > old then begin
    let kvs = Array.make (2 * cap) "" in
    for i = lo to st.attrs_end - 1 do
      let s = i land (old - 1) and d = i land (cap - 1) in
      kvs.(2 * d) <- st.kvs.(2 * s);
      kvs.((2 * d) + 1) <- st.kvs.((2 * s) + 1)
    done;
    st.kvs <- kvs
  end

(* Copy a completed trace, given newest span first, into the store.
   Spans and attributes are written from the last slot backwards, which
   puts both back in order. Only when the 256 retained traces would not
   fit does a store grow; otherwise the evicted trace's slots are
   overwritten. *)
let store_trace t spans =
  if t.store == no_store then t.store <- empty_store ();
  let st = t.store in
  let n = List.length spans
  and m = List.fold_left (fun m s -> m + List.length s.attrs) 0 spans in
  (* The oldest trace still retained once this one is in. *)
  let oldest = max 0 (st.count + 1 - capacity) in
  let span_lo, attr_lo =
    if oldest < st.count then (first_span st oldest, first_attr st oldest)
    else (st.spans_end, st.attrs_end)
  in
  reserve_spans st ~lo:span_lo n;
  reserve_attrs st ~lo:attr_lo m;
  let slots = Array.length st.firsts / 2 in
  if st.count = slots && slots < capacity then begin
    let firsts = Array.make (2 * max 1 (2 * slots)) 0 in
    Array.blit st.firsts 0 firsts 0 (2 * slots);
    st.firsts <- firsts
  end;
  let e = entry st st.count in
  st.firsts.(e) <- st.spans_end;
  st.firsts.(e + 1) <- st.attrs_end;
  let span_mask = Array.length st.names - 1 and attr_mask = (Array.length st.kvs / 2) - 1 in
  let rec write_attrs a = function
    | [] -> ()
    | (k, v) :: rest ->
      let d = 2 * (a land attr_mask) in
      st.kvs.(d) <- k;
      st.kvs.(d + 1) <- v;
      write_attrs (a - 1) rest
  in
  let rec write i a = function
    | [] -> ()
    | s :: rest ->
      let d = i land span_mask and k = List.length s.attrs in
      st.ids.(3 * d) <- s.span_id;
      st.ids.((3 * d) + 1) <- (match s.parent_id with Some p -> p | None -> -1);
      Float.Array.set st.times (2 * d) s.started;
      (match s.ended with
       | Some e ->
         Float.Array.set st.times ((2 * d) + 1) e;
         st.ids.((3 * d) + 2) <- 2 * k
       | None -> st.ids.((3 * d) + 2) <- (2 * k) + 1);
      st.names.(d) <- s.name;
      write_attrs (a - 1) s.attrs;
      write (i - 1) (a - k) rest
  in
  write (st.spans_end + n - 1) (st.attrs_end + m) spans;
  st.spans_end <- st.spans_end + n;
  st.attrs_end <- st.attrs_end + m;
  st.count <- st.count + 1

let finish t span =
  if span.ended = None then begin
    span.ended <- Some (t.clock ());
    if span.parent_id = None then begin
      (* Root closed: the trace is complete; copy it into the store. *)
      (match Hashtbl.find_opt t.live span.trace_id with
       | Some spans -> store_trace t !spans
       | None -> store_trace t [ span ]);
      Hashtbl.remove t.live span.trace_id
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

let completed t = t.store.count

(* Where trace [x]'s spans and attributes end: the next trace's firsts. *)
let ends st x =
  if x + 1 = st.count then (st.spans_end, st.attrs_end)
  else (first_span st (x + 1), first_attr st (x + 1))

(* Rebuild trace [x]'s records, walking back from its last span. *)
let rebuild st x =
  let span_mask = Array.length st.names - 1 and attr_mask = (Array.length st.kvs / 2) - 1 in
  let lo = first_span st x and hi, attr_hi = ends st x in
  let id = st.ids.(3 * (lo land span_mask)) in
  let rec attrs acc a k =
    if k = 0 then acc
    else
      let s = 2 * (a land attr_mask) in
      attrs ((st.kvs.(s), st.kvs.(s + 1)) :: acc) (a - 1) (k - 1)
  in
  let rec spans acc i a =
    if i < lo then acc
    else
      let d = i land span_mask in
      let parent = st.ids.((3 * d) + 1) and meta = st.ids.((3 * d) + 2) in
      let k = meta lsr 1 in
      let span =
        { span_id = st.ids.(3 * d); trace_id = id;
          parent_id = (if parent < 0 then None else Some parent); name = st.names.(d);
          started = Float.Array.get st.times (2 * d);
          ended =
            (if meta land 1 = 1 then None else Some (Float.Array.get st.times ((2 * d) + 1)));
          attrs = attrs [] (a - 1) k }
      in
      spans (span :: acc) (i - 1) (a - k)
  in
  let spans = spans [] (hi - 1) attr_hi in
  { id; root = List.hd spans; spans }

(* The retained traces' numbers, oldest first. *)
let retained st =
  let first = max 0 (st.count - capacity) in
  Array.init (st.count - first) (fun i -> first + i)

let traces t = List.map (rebuild t.store) (Array.to_list (retained t.store))

let slowest t n =
  let st = t.store in
  let span_mask = Array.length st.names - 1 in
  (* A root's length: a stored root is closed, since closing it stored
     the trace. *)
  let length x =
    let d = first_span st x land span_mask in
    Float.Array.get st.times ((2 * d) + 1) -. Float.Array.get st.times (2 * d)
  in
  let order = retained st in
  Array.stable_sort (fun a b -> Float.compare (length b) (length a)) order;
  List.init (max 0 (min n (Array.length order))) (fun i -> rebuild st order.(i))

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
