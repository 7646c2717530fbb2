(* Reference copy of [Nk_telemetry.Metrics] as it was when every
   instrument lived in a string-keyed table: each op built a
   [{name; labels}] key, sorted its labels and hashed it
   polymorphically, and a histogram kept its buckets in a hash table.
   The differential property in [Test_telemetry] runs random op
   sequences through both registries and compares every export byte
   for byte. The code is otherwise unchanged. *)

type labels = (string * string) list

(* Labels are normalized (sorted by key) so ["a",1;"b",2] and
   ["b",2;"a",1] address the same instrument. *)
let normalize labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

type key = { name : string; labels : labels }

let key name labels = { name; labels = normalize labels }

(* --- histograms ----------------------------------------------------- *)

module Histogram = struct
  (* Sparse logarithmic buckets: sample x > 0 lands in bucket
     floor(log_g x), covering [g^i, g^(i+1)). Recording is O(1),
     merging adds bucket counts, and any quantile is off by at most one
     bucket, i.e. a factor of [growth]. *)

  let growth = Float.pow 2.0 0.25

  let log_growth = Float.log growth

  type h = {
    mutable count : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
    mutable underflow : int; (* samples <= 0 *)
    buckets : (int, int ref) Hashtbl.t;
  }

  let create () =
    { count = 0; sum = 0.0; minv = infinity; maxv = neg_infinity; underflow = 0;
      buckets = Hashtbl.create 16 }

  let bucket_of x = int_of_float (Float.floor (Float.log x /. log_growth))

  let lower i = Float.pow growth (float_of_int i)

  let upper i = Float.pow growth (float_of_int (i + 1))

  let observe h x =
    h.count <- h.count + 1;
    h.sum <- h.sum +. x;
    if x < h.minv then h.minv <- x;
    if x > h.maxv then h.maxv <- x;
    if x <= 0.0 then h.underflow <- h.underflow + 1
    else begin
      let i = bucket_of x in
      match Hashtbl.find_opt h.buckets i with
      | Some r -> incr r
      | None -> Hashtbl.add h.buckets i (ref 1)
    end

  let count h = h.count

  let sum h = h.sum

  let min_value h = if h.count = 0 then 0.0 else h.minv

  let max_value h = if h.count = 0 then 0.0 else h.maxv

  let sorted_buckets h =
    Hashtbl.fold (fun i r acc -> (i, !r) :: acc) h.buckets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let quantile h p =
    if h.count = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank =
        let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.count)) in
        if r < 1 then 1 else if r > h.count then h.count else r
      in
      if rank <= h.underflow then Float.min 0.0 h.maxv
      else begin
        let remaining = ref (rank - h.underflow) in
        let result = ref h.maxv in
        (try
           List.iter
             (fun (i, n) ->
               if !remaining <= n then begin
                 result := Float.min (upper i) h.maxv;
                 raise Exit
               end
               else remaining := !remaining - n)
             (sorted_buckets h)
         with Exit -> ());
        !result
      end
    end

  let merge a b =
    let h = create () in
    h.count <- a.count + b.count;
    h.sum <- a.sum +. b.sum;
    h.minv <- Float.min a.minv b.minv;
    h.maxv <- Float.max a.maxv b.maxv;
    h.underflow <- a.underflow + b.underflow;
    let add (i, n) =
      match Hashtbl.find_opt h.buckets i with
      | Some r -> r := !r + n
      | None -> Hashtbl.add h.buckets i (ref n)
    in
    List.iter add (sorted_buckets a);
    List.iter add (sorted_buckets b);
    h

  let buckets h =
    let log_buckets = List.map (fun (i, n) -> (lower i, upper i, n)) (sorted_buckets h) in
    if h.underflow > 0 then (neg_infinity, 0.0, h.underflow) :: log_buckets else log_buckets
end

(* --- the registry --------------------------------------------------- *)

type t = {
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  histograms : (key, Histogram.h) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 32; gauges = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let incr t ?(labels = []) ?(by = 1) name =
  let k = key name labels in
  match Hashtbl.find_opt t.counters k with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters k (ref by)

let counter t ?(labels = []) name =
  match Hashtbl.find_opt t.counters (key name labels) with Some r -> !r | None -> 0

let counter_total t name =
  Hashtbl.fold (fun k r acc -> if k.name = name then acc + !r else acc) t.counters 0

let set_gauge t ?(labels = []) name v =
  let k = key name labels in
  match Hashtbl.find_opt t.gauges k with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauges k (ref v)

let gauge t name =
  match Hashtbl.find_opt t.gauges (key name []) with Some r -> !r | None -> 0.0

let hist t k =
  match Hashtbl.find_opt t.histograms k with
  | Some h -> h
  | None ->
    let h = Histogram.create () in
    Hashtbl.add t.histograms k h;
    h

let observe t ?(labels = []) name x = Histogram.observe (hist t (key name labels)) x

let histogram t ?(labels = []) name = Hashtbl.find_opt t.histograms (key name labels)

let merge ~into src =
  Hashtbl.iter
    (fun k r -> incr into ~labels:k.labels ~by:!r k.name)
    src.counters;
  Hashtbl.iter (fun k r -> set_gauge into ~labels:k.labels k.name !r) src.gauges;
  Hashtbl.iter
    (fun k h ->
      let merged = Histogram.merge (hist into k) h in
      Hashtbl.replace into.histograms k merged)
    src.histograms

let sorted_entries table value =
  Hashtbl.fold (fun k v acc -> (k.name, k.labels, value v) :: acc) table []
  |> List.sort compare

let counters t = sorted_entries t.counters (fun r -> !r)

let gauges t = sorted_entries t.gauges (fun r -> !r)

let histograms t = sorted_entries t.histograms (fun h -> h)

let counter_names t =
  counters t |> List.map (fun (n, _, _) -> n) |> List.sort_uniq compare

(* --- exporters ------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) labels)
    ^ "}"

let float_repr x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

let to_table t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match counters t with
   | [] -> ()
   | cs ->
     line "counters:";
     List.iter (fun (n, ls, v) -> line "  %-44s %12d" (n ^ labels_to_string ls) v) cs);
  (match gauges t with
   | [] -> ()
   | gs ->
     line "gauges:";
     List.iter (fun (n, ls, v) -> line "  %-44s %12s" (n ^ labels_to_string ls) (float_repr v)) gs);
  (match histograms t with
   | [] -> ()
   | hs ->
     line "histograms:  %-31s %8s %10s %10s %10s %10s %10s" "" "count" "mean" "p50" "p90" "p99" "max";
     List.iter
       (fun (n, ls, h) ->
         let c = Histogram.count h in
         let mean = if c = 0 then 0.0 else Histogram.sum h /. float_of_int c in
         line "  %-44s %8d %10.4g %10.4g %10.4g %10.4g %10.4g" (n ^ labels_to_string ls) c mean
           (Histogram.quantile h 50.0) (Histogram.quantile h 90.0) (Histogram.quantile h 99.0)
           (Histogram.max_value h))
       hs);
  Buffer.contents buf

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) labels)
  ^ "}"

let counter_json (n, ls, v) =
  Printf.sprintf "{\"name\":\"%s\",\"labels\":%s,\"value\":%d}" (json_escape n) (labels_json ls) v

let gauge_json (n, ls, v) =
  Printf.sprintf "{\"name\":\"%s\",\"labels\":%s,\"value\":%s}" (json_escape n) (labels_json ls)
    (float_repr v)

let histogram_json (n, ls, h) =
  let c = Histogram.count h in
  Printf.sprintf
    "{\"name\":\"%s\",\"labels\":%s,\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s}"
    (json_escape n) (labels_json ls) c
    (float_repr (Histogram.sum h))
    (float_repr (Histogram.min_value h))
    (float_repr (Histogram.max_value h))
    (float_repr (Histogram.quantile h 50.0))
    (float_repr (Histogram.quantile h 90.0))
    (float_repr (Histogram.quantile h 99.0))

let with_type ty json =
  (* Splice a "type" field into an exporter-produced object. *)
  Printf.sprintf "{\"type\":\"%s\",%s" ty (String.sub json 1 (String.length json - 1))

let to_json_lines t =
  let lines =
    List.map (fun e -> with_type "counter" (counter_json e)) (counters t)
    @ List.map (fun e -> with_type "gauge" (gauge_json e)) (gauges t)
    @ List.map (fun e -> with_type "histogram" (histogram_json e)) (histograms t)
  in
  String.concat "\n" lines ^ if lines = [] then "" else "\n"

let prom_name name =
  String.map (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let prom_labels labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (prom_name k) (json_escape v)) labels)
    ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let typed = Hashtbl.create 16 in
  let declare name ty =
    if not (Hashtbl.mem typed (name, ty)) then begin
      Hashtbl.add typed (name, ty) ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name ty)
    end
  in
  List.iter
    (fun (n, ls, v) ->
      let n = prom_name n in
      declare n "counter";
      Buffer.add_string buf (Printf.sprintf "%s%s %d\n" n (prom_labels ls) v))
    (counters t);
  List.iter
    (fun (n, ls, v) ->
      let n = prom_name n in
      declare n "gauge";
      Buffer.add_string buf (Printf.sprintf "%s%s %s\n" n (prom_labels ls) (float_repr v)))
    (gauges t);
  List.iter
    (fun (n, ls, h) ->
      let n = prom_name n in
      declare n "histogram";
      let cumulative = ref 0 in
      List.iter
        (fun (_, up, c) ->
          cumulative := !cumulative + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" n
               (prom_labels (ls @ [ ("le", float_repr up) ]))
               !cumulative))
        (Histogram.buckets h);
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" n (prom_labels (ls @ [ ("le", "+Inf") ]))
           (Histogram.count h));
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" n (prom_labels ls) (float_repr (Histogram.sum h)));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" n (prom_labels ls) (Histogram.count h)))
    (histograms t);
  Buffer.contents buf
