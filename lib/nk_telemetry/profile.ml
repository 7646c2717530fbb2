type cell = { mutable calls : int; mutable total : float; mutable max : float }

type t = { clock : unit -> float; cells : (string, cell) Hashtbl.t }

let create ~clock () = { clock; cells = Hashtbl.create 16 }

let cell t region =
  match Hashtbl.find_opt t.cells region with
  | Some c -> c
  | None ->
    let c = { calls = 0; total = 0.0; max = 0.0 } in
    Hashtbl.add t.cells region c;
    c

let time t region f =
  let t0 = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let elapsed = t.clock () -. t0 in
      let c = cell t region in
      c.calls <- c.calls + 1;
      c.total <- c.total +. elapsed;
      if elapsed > c.max then c.max <- elapsed)
    f

type entry = { region : string; calls : int; total : float; max : float }

let report t =
  Hashtbl.fold
    (fun region (c : cell) acc -> { region; calls = c.calls; total = c.total; max = c.max } :: acc)
    t.cells []
  |> List.sort (fun a b -> compare b.total a.total)

let to_table t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%-36s %8s %12s %12s\n" "region" "calls" "total s" "max s");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-36s %8d %12.6f %12.6f\n" e.region e.calls e.total e.max))
    (report t);
  Buffer.contents buf
