(* Reference copies of [Nk_telemetry.Events] and [Nk_telemetry.Tracer]
   as they were when both preallocated their whole ring. The
   differential properties in [Test_telemetry] run them side by side
   with the current modules, whose rings grow as they fill. Rendering
   and [with_span] are left out; the code is otherwise unchanged. *)

module Events = struct
  type event = { time : float; name : string; attrs : (string * string) list }

  type t = {
    clock : unit -> float;
    ring : event option array;
    mutable next_slot : int;
    mutable count : int;
  }

  (* Events retained; older ones are overwritten. *)
  let capacity = 1024

  let create ?(clock = fun () -> 0.0) () =
    { clock; ring = Array.make capacity None; next_slot = 0; count = 0 }

  let record t ?(attrs = []) name =
    let time = t.clock () in
    t.ring.(t.next_slot) <- Some { time; name; attrs };
    t.next_slot <- (t.next_slot + 1) mod Array.length t.ring;
    t.count <- t.count + 1

  let count t = t.count

  let to_list t =
    let n = Array.length t.ring in
    List.filter_map (fun i -> t.ring.((t.next_slot + i) mod n)) (List.init n (fun i -> i))
end

module Tracer = struct
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
    ring : trace option array;
    mutable next_slot : int;
    mutable completed : int;
    mutable next_id : int;
    live : (int, span list ref) Hashtbl.t; (* trace id -> spans, newest first *)
  }

  (* Completed traces retained in the ring buffer. *)
  let capacity = 256

  let create ~clock () =
    {
      clock;
      ring = Array.make capacity None;
      next_slot = 0;
      completed = 0;
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
        t.ring.(t.next_slot) <- Some { id = span.trace_id; root = span; spans };
        t.next_slot <- (t.next_slot + 1) mod Array.length t.ring;
        t.completed <- t.completed + 1
      end
    end

  let duration span = Option.map (fun e -> e -. span.started) span.ended

  let completed t = t.completed

  let traces t =
    (* Oldest first: the slot about to be overwritten holds the oldest. *)
    let n = Array.length t.ring in
    List.filter_map
      (fun i -> t.ring.((t.next_slot + i) mod n))
      (List.init n (fun i -> i))

  let slowest t n =
    traces t
    |> List.sort (fun a b ->
           compare
             (Option.value ~default:0.0 (duration b.root))
             (Option.value ~default:0.0 (duration a.root)))
    |> List.filteri (fun i _ -> i < n)
end
