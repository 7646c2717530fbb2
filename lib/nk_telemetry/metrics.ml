type labels = (string * string) list

(* String-keyed tables that hash with [String.hash] and compare with
   [String.equal]: no polymorphic hash or compare on the op path. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash = String.hash
end)

(* --- histograms ----------------------------------------------------- *)

module Histogram = struct
  (* Logarithmic buckets: sample x > 0 lands in bucket
     floor(log_g x), covering [g^i, g^(i+1)). The buckets a histogram
     has seen are one dense run [lo, lo + length counts), so recording
     is an array increment, merging adds counts, and any quantile is
     off by at most one bucket, i.e. a factor of [growth]. *)

  let growth = Float.pow 2.0 0.25

  let log_growth = Float.log growth

  type h = {
    mutable count : int;
    stats : float array; (* sum, min, max: unboxed, so recording allocates nothing *)
    mutable underflow : int; (* samples <= 0 *)
    mutable lo : int; (* bucket index of counts.(0) *)
    mutable counts : int array;
  }

  let create () =
    { count = 0; stats = [| 0.0; infinity; neg_infinity |]; underflow = 0; lo = 0; counts = [||] }

  (* Every finite positive double's index lies in [-4296, 4095]; a
     non-finite sample, whose [int_of_float] the platform decides,
     counts in the highest bucket. *)
  let bucket_of x =
    if Float.is_finite x then int_of_float (Float.floor (Float.log x /. log_growth)) else 4095

  let lower i = Float.pow growth (float_of_int i)

  let upper i = Float.pow growth (float_of_int (i + 1))

  let add_bucket h i n =
    let len = Array.length h.counts in
    let off = i - h.lo in
    if off >= 0 && off < len then h.counts.(off) <- h.counts.(off) + n
    else begin
      let lo = if len = 0 then i else min h.lo i in
      let hi = if len = 0 then i else max (h.lo + len - 1) i in
      let counts = Array.make (hi - lo + 1) 0 in
      if len > 0 then Array.blit h.counts 0 counts (h.lo - lo) len;
      counts.(i - lo) <- n;
      h.lo <- lo;
      h.counts <- counts
    end

  let observe h x =
    h.count <- h.count + 1;
    let s = h.stats in
    s.(0) <- s.(0) +. x;
    if x < s.(1) then s.(1) <- x;
    if x > s.(2) then s.(2) <- x;
    if x <= 0.0 then h.underflow <- h.underflow + 1 else add_bucket h (bucket_of x) 1

  let count h = h.count

  let sum h = h.stats.(0)

  let min_value h = if h.count = 0 then 0.0 else h.stats.(1)

  let max_value h = if h.count = 0 then 0.0 else h.stats.(2)

  let quantile h p =
    if h.count = 0 then 0.0
    else begin
      let maxv = h.stats.(2) in
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank =
        let r = int_of_float (Float.ceil (p /. 100.0 *. float_of_int h.count)) in
        if r < 1 then 1 else if r > h.count then h.count else r
      in
      if rank <= h.underflow then Float.min 0.0 maxv
      else begin
        let remaining = ref (rank - h.underflow) in
        let off = ref 0 in
        while !off < Array.length h.counts && !remaining > h.counts.(!off) do
          remaining := !remaining - h.counts.(!off);
          incr off
        done;
        if !off < Array.length h.counts then Float.min (upper (h.lo + !off)) maxv else maxv
      end
    end

  (* Fold [src] into [dst], as if [dst] had also seen [src]'s samples. *)
  let absorb dst src =
    dst.count <- dst.count + src.count;
    dst.stats.(0) <- dst.stats.(0) +. src.stats.(0);
    dst.stats.(1) <- Float.min dst.stats.(1) src.stats.(1);
    dst.stats.(2) <- Float.max dst.stats.(2) src.stats.(2);
    dst.underflow <- dst.underflow + src.underflow;
    Array.iteri (fun off n -> if n > 0 then add_bucket dst (src.lo + off) n) src.counts

  let buckets h =
    let log_buckets = ref [] in
    for off = Array.length h.counts - 1 downto 0 do
      let n = h.counts.(off) in
      if n > 0 then log_buckets := (lower (h.lo + off), upper (h.lo + off), n) :: !log_buckets
    done;
    if h.underflow > 0 then (neg_infinity, 0.0, h.underflow) :: !log_buckets else !log_buckets
end

(* --- the catalogue --------------------------------------------------- *)

(* One catalogue per instrument kind, shared by every registry in the
   process. Each metric name gets a dense scalar id, and each
   (name, label keys) family a dense family id, the first time it is
   declared: by a module's handle at initialisation, or by a by-name
   call for a name no module declared. *)

type family = {
  fname : string;
  keys : string array; (* sorted *)
}

type entry = {
  mutable scalar : int; (* -1 while only families use the name *)
  mutable families : int list;
}

type catalogue = {
  by_name : entry Tbl.t;
  mutable names : string array; (* scalar id -> name *)
  mutable n_scalars : int;
  mutable fams : family array; (* family id -> name, keys *)
  mutable n_families : int;
}

let catalogue () =
  { by_name = Tbl.create 64; names = [||]; n_scalars = 0; fams = [||]; n_families = 0 }

let counter_cat = catalogue ()

let gauge_cat = catalogue ()

let histogram_cat = catalogue ()

let push arr n x =
  let arr = if n < Array.length arr then arr else Array.append arr (Array.make (max 8 n) x) in
  arr.(n) <- x;
  arr

let entry cat name =
  match Tbl.find cat.by_name name with
  | e -> e
  | exception Not_found ->
    let e = { scalar = -1; families = [] } in
    Tbl.add cat.by_name name e;
    e

let declare_scalar cat name =
  let e = entry cat name in
  if e.scalar < 0 then begin
    e.scalar <- cat.n_scalars;
    cat.names <- push cat.names cat.n_scalars name;
    cat.n_scalars <- cat.n_scalars + 1
  end;
  e.scalar

let keys_equal keys labels =
  let rec go i = function
    | [] -> i = Array.length keys
    | (k, _) :: rest -> i < Array.length keys && String.equal keys.(i) k && go (i + 1) rest
  in
  go 0 labels

(* The family of [e] with [labels]' keys, or -1. *)
let find_family cat e labels =
  let rec go = function
    | [] -> -1
    | fid :: rest -> if keys_equal cat.fams.(fid).keys labels then fid else go rest
  in
  go e.families

let declare_family cat name labels =
  let e = entry cat name in
  match find_family cat e labels with
  | -1 ->
    let fid = cat.n_families in
    let fam = { fname = name; keys = Array.of_list (List.map fst labels) } in
    cat.fams <- push cat.fams fid fam;
    cat.n_families <- fid + 1;
    e.families <- fid :: e.families;
    fid
  | fid -> fid

(* A series of a family is keyed by its label values alone: the value
   itself for one label, length-prefixed values for more. *)
let encode_values = function
  | [ (_, v) ] -> v
  | labels ->
    String.concat ""
      (List.map (fun (_, v) -> string_of_int (String.length v) ^ ":" ^ v) labels)

let decode_values fam key =
  if Array.length fam.keys = 1 then [ (fam.keys.(0), key) ]
  else begin
    let pos = ref 0 in
    Array.to_list
      (Array.map
         (fun k ->
           let colon = String.index_from key !pos ':' in
           let len = int_of_string (String.sub key !pos (colon - !pos)) in
           pos := colon + 1 + len;
           (k, String.sub key (colon + 1) len))
         fam.keys)
  end

(* Labels are normalized (sorted by key) so ["a",1;"b",2] and
   ["b",2;"a",1] address the same instrument. *)
let normalize = function
  | ([] | [ _ ]) as labels -> labels
  | labels -> List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* --- the registry --------------------------------------------------- *)

(* One kind's families in a registry: per family id, a table made on
   the family's first write. *)
type 'a families = { mutable tables : 'a Tbl.t option array }

(* Plain series live in dense arrays indexed by id, grown to the
   catalogue's size on the first write past their end. [counted] and
   [gauged] mark the counters and gauges ever written, and a histogram
   slot never written holds the shared [no_hist]: exports list only
   what was written. *)
type t = {
  mutable counts : int array;
  mutable counted : Bytes.t;
  mutable gauges : float array;
  mutable gauged : Bytes.t;
  mutable hists : Histogram.h array;
  counter_fams : int ref families;
  gauge_fams : float ref families;
  hist_fams : Histogram.h families;
}

type registry = t

let create () =
  {
    counts = [||];
    counted = Bytes.empty;
    gauges = [||];
    gauged = Bytes.empty;
    hists = [||];
    counter_fams = { tables = [||] };
    gauge_fams = { tables = [||] };
    hist_fams = { tables = [||] };
  }

let grow arr n fill =
  let a = Array.make n fill in
  Array.blit arr 0 a 0 (Array.length arr);
  a

let grow_flags b n =
  let f = Bytes.make n '\000' in
  Bytes.blit b 0 f 0 (Bytes.length b);
  f

let written flags i = i < Bytes.length flags && Bytes.get flags i <> '\000'

let no_hist = Histogram.create ()

let add_count t id by =
  if id >= Array.length t.counts then begin
    t.counts <- grow t.counts counter_cat.n_scalars 0;
    t.counted <- grow_flags t.counted counter_cat.n_scalars
  end;
  t.counts.(id) <- t.counts.(id) + by;
  Bytes.unsafe_set t.counted id '\001'

let put_gauge t id v =
  if id >= Array.length t.gauges then begin
    t.gauges <- grow t.gauges gauge_cat.n_scalars 0.0;
    t.gauged <- grow_flags t.gauged gauge_cat.n_scalars
  end;
  t.gauges.(id) <- v;
  Bytes.unsafe_set t.gauged id '\001'

let hist_slot t id =
  if id >= Array.length t.hists then t.hists <- grow t.hists histogram_cat.n_scalars no_hist;
  let h = t.hists.(id) in
  if h != no_hist then h
  else begin
    let h = Histogram.create () in
    t.hists.(id) <- h;
    h
  end

(* The cell of family [fid]'s series [key], made by [fresh] on first
   use. *)
let series cat fams fid key fresh =
  if fid >= Array.length fams.tables then fams.tables <- grow fams.tables cat.n_families None;
  let tbl =
    match fams.tables.(fid) with
    | Some tbl -> tbl
    | None ->
      let tbl = Tbl.create 8 in
      fams.tables.(fid) <- Some tbl;
      tbl
  in
  match Tbl.find tbl key with
  | c -> c
  | exception Not_found ->
    let c = fresh () in
    Tbl.add tbl key c;
    c

let count_cell () = ref 0

let gauge_cell () = ref 0.0

let find_series fams fid key =
  if fid < Array.length fams.tables then
    Option.bind fams.tables.(fid) (fun tbl -> Tbl.find_opt tbl key)
  else None

(* Every written value, as [f id value] or [f fid key cell]. *)
let iter_counts t f = Array.iteri (fun id v -> if written t.counted id then f id v) t.counts

let iter_gauges t f = Array.iteri (fun id v -> if written t.gauged id then f id v) t.gauges

let iter_hists t f = Array.iteri (fun id h -> if h != no_hist then f id h) t.hists

let iter_series fams f = Array.iteri (fun fid -> Option.iter (Tbl.iter (f fid))) fams.tables

(* --- declared handles ------------------------------------------------ *)

type 'v family_handle = { fid : int; key : 'v -> string }

let one_label cat name ~label =
  { fid = declare_family cat name [ (label, "") ]; key = (fun v -> v) }

let two_labels cat name ~labels:(a, b) =
  if String.compare a b >= 0 then invalid_arg "Metrics: a family's labels must be sorted";
  {
    fid = declare_family cat name [ (a, ""); (b, "") ];
    key = (fun (x, y) -> encode_values [ (a, x); (b, y) ]);
  }

module Counter = struct
  type t = int

  type 'v family = 'v family_handle

  let v name = declare_scalar counter_cat name

  let incr ?(by = 1) m c = add_count m c by

  let get m c = if c < Array.length m.counts then m.counts.(c) else 0

  let family name ~label = one_label counter_cat name ~label

  let family2 name ~labels = two_labels counter_cat name ~labels

  let incr_at ?(by = 1) m f v =
    let r = series counter_cat m.counter_fams f.fid (f.key v) count_cell in
    r := !r + by
end

module Gauge = struct
  type t = int

  let v name = declare_scalar gauge_cat name

  let set m g x = put_gauge m g x
end

module Hist = struct
  type t = int

  type 'v family = 'v family_handle

  let v name = declare_scalar histogram_cat name

  let observe m h x = Histogram.observe (hist_slot m h) x

  let family name ~label = one_label histogram_cat name ~label

  let observe_at m f v x =
    Histogram.observe (series histogram_cat m.hist_fams f.fid (f.key v) Histogram.create) x

  let find_at m f v = find_series m.hist_fams f.fid (f.key v)
end

(* --- by name --------------------------------------------------------- *)

let incr t ?(labels = []) ?(by = 1) name =
  match normalize labels with
  | [] -> add_count t (declare_scalar counter_cat name) by
  | labels ->
    let fid = declare_family counter_cat name labels in
    let r = series counter_cat t.counter_fams fid (encode_values labels) count_cell in
    r := !r + by

let set_gauge t ?(labels = []) name v =
  match normalize labels with
  | [] -> put_gauge t (declare_scalar gauge_cat name) v
  | labels ->
    let fid = declare_family gauge_cat name labels in
    series gauge_cat t.gauge_fams fid (encode_values labels) gauge_cell := v

let observe t ?(labels = []) name x =
  match normalize labels with
  | [] -> Hist.observe t (declare_scalar histogram_cat name) x
  | labels ->
    let fid = declare_family histogram_cat name labels in
    let h = series histogram_cat t.hist_fams fid (encode_values labels) Histogram.create in
    Histogram.observe h x

(* Look [name] up without declaring it: [scalar id] or [family fid key]. *)
let lookup cat name labels ~scalar ~family =
  match Tbl.find_opt cat.by_name name with
  | None -> None
  | Some e -> (
    match normalize labels with
    | [] -> if e.scalar >= 0 then scalar e.scalar else None
    | labels -> (
      match find_family cat e labels with
      | -1 -> None
      | fid -> family fid (encode_values labels)))

let counter t ?(labels = []) name =
  lookup counter_cat name labels
    ~scalar:(fun id -> if written t.counted id then Some t.counts.(id) else None)
    ~family:(fun fid key -> Option.map ( ! ) (find_series t.counter_fams fid key))
  |> Option.value ~default:0

let gauge t name =
  lookup gauge_cat name []
    ~scalar:(fun id -> if written t.gauged id then Some t.gauges.(id) else None)
    ~family:(fun _ _ -> None)
  |> Option.value ~default:0.0

let histogram t ?(labels = []) name =
  lookup histogram_cat name labels
    ~scalar:(fun id ->
      if id < Array.length t.hists && t.hists.(id) != no_hist then Some t.hists.(id) else None)
    ~family:(find_series t.hist_fams)

let counter_total t name =
  let total = ref 0 in
  let add n v = if String.equal n name then total := !total + v in
  iter_counts t (fun id v -> add counter_cat.names.(id) v);
  iter_series t.counter_fams (fun fid _ r -> add counter_cat.fams.(fid).fname !r);
  !total

(* --- listing --------------------------------------------------------- *)

(* Every written instrument of one kind as (name, labels, value),
   sorted by name then labels. *)
let entries cat iter_scalars fams value =
  let acc = ref [] in
  iter_scalars (fun id v -> acc := (cat.names.(id), [], v) :: !acc);
  iter_series fams (fun fid key c ->
      let fam = cat.fams.(fid) in
      acc := (fam.fname, decode_values fam key, value c) :: !acc);
  List.sort compare !acc

let counters t = entries counter_cat (iter_counts t) t.counter_fams ( ! )

let gauges t = entries gauge_cat (iter_gauges t) t.gauge_fams ( ! )

let histograms t = entries histogram_cat (iter_hists t) t.hist_fams Fun.id

let merge ~into src =
  iter_counts src (add_count into);
  iter_series src.counter_fams (fun fid key r ->
      let d = series counter_cat into.counter_fams fid key count_cell in
      d := !d + !r);
  iter_gauges src (put_gauge into);
  iter_series src.gauge_fams (fun fid key r ->
      series gauge_cat into.gauge_fams fid key gauge_cell := !r);
  iter_hists src (fun id h -> Histogram.absorb (hist_slot into id) h);
  iter_series src.hist_fams (fun fid key h ->
      Histogram.absorb (series histogram_cat into.hist_fams fid key Histogram.create) h)

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
