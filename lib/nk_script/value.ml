(* Runtime values of NKScript. Byte arrays are a core type — the paper
   added them to SpiderMonkey "to avoid unnecessarily copying data"
   (§3.1, §4) — and native functions are how vocabularies surface.

   Objects use a shape (hidden-class) representation: a shape is an
   interned-atom -> slot layout shared by every object built with the
   same property-insertion history, and values live in a compact slot
   array. Property lookup compares ints down the shape chain instead of
   hashing strings, and — the point of the exercise — gives compiled
   code a single word to compare in its inline caches: if an object's
   shape is physically the cached shape, the cached slot index is valid
   and the access is one array load. [delete] demotes the object to a
   plain atom-keyed dictionary (shapes cannot express holes cheaply);
   nothing observable changes, only the fast paths stop applying. *)

type t =
  | Vundefined
  | Vnull
  | Vbool of bool
  | Vnum of float
  | Vstr of string
  | Vbytes of bytebuf
  | Vobj of obj
  | Varr of arr
  | Vfun of func

and obj = {
  oid : int;
  mutable shape : shape;
  mutable slots : t array; (* valid for indices < shape.snslots *)
  mutable dict : (int, t) Hashtbl.t option; (* Some after a delete: dictionary mode *)
}

and shape = {
  sid : int;
  satom : int; (* atom appended at this step; -1 at the root *)
  sslot : int; (* its slot index; -1 at the root *)
  snslots : int; (* total slots an object of this shape uses *)
  sparent : shape;
  mutable stransitions : (int * shape) list;
}

and arr = { mutable items : t array; mutable len : int }

and bytebuf = { mutable data : Bytes.t; mutable blen : int }

and func = Native_fn of native_fn | Compiled_fn of compiled_fn

and native_fn = { nname : string; call : t option -> t list -> t }
(* [call this args]; raises Script_error on misuse. *)

and compiled_fn = { code : compiled_code; captured : t array list; cglobals : scope }
(* A script closure, the only kind the library makes ([Compile]):
   static code shared by every closure over the same function body,
   plus the enclosing frames (innermost first) and the *defining*
   context's globals — the reference semantics in
   [test/reference_interp.ml] closes over a scope chain that always ends
   with the defining globals, and the compiled form preserves that even
   if the value crosses contexts. That reference builds its own closures
   as [Compiled_fn] values whose [ccall] runs it. *)

and compiled_code = {
  cfname : string;
  ccall : ctx -> this:t -> globals:scope -> t array list -> t list -> t;
  (* [ccall ctx ~this ~globals captured args]: fuel/heap are charged to
     [ctx], the *calling* context. *)
}

and scope = (string, t ref) Hashtbl.t

and ctx = {
  globals : scope;
  max_fuel : int;
  max_heap : int;
  mutable fuel_used : int;
  mutable heap_used : int;
  mutable killed : bool;
  mutable usage_observer : (fuel:int -> heap:int -> unit) option;
  frame_pool : t array list array;
  (* Per-context arena of recycled call frames, indexed by slot count:
     compiled calls to functions whose frame provably cannot escape
     (no nested function literals or declarations capture it) draw
     from and return to these free lists instead of allocating. Frames
     are wiped to [undeclared] on reuse, so no value leaks between
     requests or sandboxes. *)
  frame_pool_count : int array;
}
(* The sandboxed scripting context. Defined here (rather than in
   [Interp]) so compiled code in [Compile] can close over it; [Interp]
   re-exports it and owns the public API. *)

exception Script_error of string

exception Resource_exhausted of string

exception Terminated

let error fmt = Printf.ksprintf (fun msg -> raise (Script_error msg)) fmt

(* --- shapes ---------------------------------------------------------- *)

let next_sid = ref 2

let rec root_shape =
  { sid = 0; satom = -1; sslot = -1; snslots = 0; sparent = root_shape; stransitions = [] }

(* Dictionary-mode objects point here; never has transitions or slots. *)
let rec dict_shape =
  { sid = 1; satom = -1; sslot = -1; snslots = 0; sparent = dict_shape; stransitions = [] }

(* A shape no object ever carries: inline caches initialize to it so a
   fresh cache can never spuriously hit (not even on an empty or
   dictionary-mode object). *)
let rec ic_sentinel_shape =
  { sid = -1; satom = -1; sslot = -1; snslots = 0; sparent = ic_sentinel_shape; stransitions = [] }

(* Slot of [atom] under [shape], or -1. Atoms are >= 0 and the root's
   [satom] is -1, so the walk terminates at the root without an extra
   depth check. *)
let shape_find shape atom =
  let rec go s = if s.satom = atom then s.sslot else if s.sslot < 0 then -1 else go s.sparent in
  go shape

let shape_transition shape atom =
  let rec find = function
    | [] -> None
    | (a, s) :: rest -> if a = atom then Some s else find rest
  in
  match find shape.stransitions with
  | Some next -> next
  | None ->
    let next =
      {
        sid =
          (incr next_sid;
           !next_sid);
        satom = atom;
        sslot = shape.snslots;
        snslots = shape.snslots + 1;
        sparent = shape;
        stransitions = [];
      }
    in
    shape.stransitions <- (atom, next) :: shape.stransitions;
    next

(* --- objects --------------------------------------------------------- *)

let next_oid = ref 0

let no_slots : t array = [||]

let new_obj () =
  incr next_oid;
  { oid = !next_oid; shape = root_shape; slots = no_slots; dict = None }

(* An object born with a precomputed shape (compiled object literals):
   the slot array is exact-sized and the shape chain was resolved at
   compile time. Slots must be fully initialized by the caller before
   the object escapes. *)
let new_obj_with_shape shape =
  incr next_oid;
  { oid = !next_oid; shape; slots = Array.make shape.snslots Vundefined; dict = None }

let obj_get_atom o atom =
  match o.dict with
  | None ->
    let i = shape_find o.shape atom in
    if i >= 0 then Array.unsafe_get o.slots i else Vundefined
  | Some d -> ( match Hashtbl.find_opt d atom with Some v -> v | None -> Vundefined)

let obj_set_atom o atom v =
  match o.dict with
  | None ->
    let i = shape_find o.shape atom in
    if i >= 0 then Array.unsafe_set o.slots i v
    else begin
      let next = shape_transition o.shape atom in
      let slot = next.sslot in
      if slot >= Array.length o.slots then begin
        let ncap = max 4 (2 * Array.length o.slots) in
        let nslots = Array.make ncap Vundefined in
        Array.blit o.slots 0 nslots 0 o.shape.snslots;
        o.slots <- nslots
      end;
      o.slots.(slot) <- v;
      o.shape <- next
    end
  | Some d -> Hashtbl.replace d atom v

let obj_get o name = obj_get_atom o (Atom.intern name)

let obj_set o name v = obj_set_atom o (Atom.intern name) v

let obj_delete o name =
  let atom = Atom.intern name in
  match o.dict with
  | Some d -> Hashtbl.remove d atom
  | None ->
    (* Demote to dictionary mode; shapes cannot express holes. *)
    let d = Hashtbl.create 8 in
    let rec copy s =
      if s.sslot >= 0 then begin
        copy s.sparent;
        Hashtbl.replace d s.satom o.slots.(s.sslot)
      end
    in
    copy o.shape;
    Hashtbl.remove d atom;
    o.dict <- Some d;
    o.shape <- dict_shape;
    o.slots <- no_slots

let obj_keys o =
  (* stable order: sort for determinism *)
  let keys =
    match o.dict with
    | None ->
      let rec go s acc = if s.sslot < 0 then acc else go s.sparent (Atom.to_string s.satom :: acc) in
      go o.shape []
    | Some d -> Hashtbl.fold (fun a _ acc -> Atom.to_string a :: acc) d []
  in
  List.sort String.compare keys

(* --- arrays, bytes ---------------------------------------------------- *)

let new_arr items = { items = Array.of_list items; len = List.length items }

let arr_get a i = if i >= 0 && i < a.len then a.items.(i) else Vundefined

let arr_set a i v =
  if i < 0 then error "negative array index %d" i;
  if i >= Array.length a.items then begin
    let ncap = max 8 (max (i + 1) (2 * Array.length a.items)) in
    let nitems = Array.make ncap Vundefined in
    Array.blit a.items 0 nitems 0 a.len;
    a.items <- nitems
  end;
  a.items.(i) <- v;
  if i >= a.len then a.len <- i + 1

let arr_push a v = arr_set a a.len v

let arr_to_list a = Array.to_list (Array.sub a.items 0 a.len)

let new_bytes () = { data = Bytes.create 0; blen = 0 }

let bytes_of_string s = { data = Bytes.of_string s; blen = String.length s }

let bytes_of_bytes b = { data = b; blen = Bytes.length b }
(* Zero-copy adoption: the byte array takes ownership of [b] (the
   caller must not retain it) — the transcode path hands freshly
   encoded frames to scripts without a round-trip through [string]. *)

let bytes_to_string b = Bytes.sub_string b.data 0 b.blen

let bytes_append b s =
  let slen = String.length s in
  if b.blen + slen > Bytes.length b.data then begin
    let ncap = max 32 (max (b.blen + slen) (2 * Bytes.length b.data)) in
    let ndata = Bytes.create ncap in
    Bytes.blit b.data 0 ndata 0 b.blen;
    b.data <- ndata
  end;
  Bytes.blit_string s 0 b.data b.blen slen;
  b.blen <- b.blen + slen

let native name call = Vfun (Native_fn { nname = name; call })

let type_name = function
  | Vundefined -> "undefined"
  | Vnull -> "object"
  | Vbool _ -> "boolean"
  | Vnum _ -> "number"
  | Vstr _ -> "string"
  | Vbytes _ -> "bytearray"
  | Vobj _ -> "object"
  | Varr _ -> "object"
  | Vfun _ -> "function"

let truthy = function
  | Vundefined | Vnull -> false
  | Vbool b -> b
  | Vnum n -> n <> 0.0 && not (Float.is_nan n)
  | Vstr s -> s <> ""
  | Vbytes _ | Vobj _ | Varr _ | Vfun _ -> true

let number_to_string n =
  if Float.is_nan n then "NaN"
  else if Float.is_integer n && Float.abs n < 1e15 then
    string_of_int (int_of_float n)
  else Printf.sprintf "%g" n

let rec to_string = function
  | Vundefined -> "undefined"
  | Vnull -> "null"
  | Vbool b -> string_of_bool b
  | Vnum n -> number_to_string n
  | Vstr s -> s
  | Vbytes b -> bytes_to_string b
  | Vobj _ -> "[object Object]"
  | Varr a -> String.concat "," (element_texts ~charge:ignore [ a ] a)
  | Vfun (Compiled_fn f) -> Printf.sprintf "function %s() { ... }" f.code.cfname
  | Vfun (Native_fn f) -> Printf.sprintf "function %s() { [native code] }" f.nname

(* The texts of [a]'s elements, as array stringification joins them;
   [path] holds the arrays being stringified, [a] included. A nested
   array's text is built with "," separators, its length passed to
   [charge] first, so text that doubles per level ([a = [a, a]]
   repeated) can be paid for as it grows. An array already on [path]
   prints as "" (JS [join] semantics): [a.push(a)] cannot recurse
   forever. *)
and element_texts ~charge path a =
  List.map
    (function
      | Varr b when List.memq b path -> ""
      | Varr b ->
        let parts = element_texts ~charge (b :: path) b in
        charge (List.fold_left (fun n p -> n + String.length p) (max 0 (b.len - 1)) parts);
        String.concat "," parts
      | v -> to_string v)
    (arr_to_list a)

(* A native function's [i]th argument, [Vundefined] when it was not
   passed, and that argument as a string. *)
let arg i args = match List.nth_opt args i with Some v -> v | None -> Vundefined

let sarg i args = to_string (arg i args)

let to_number = function
  | Vundefined -> Float.nan
  | Vnull -> 0.0
  | Vbool true -> 1.0
  | Vbool false -> 0.0
  | Vnum n -> n
  | Vstr s -> (
    let s = String.trim s in
    if s = "" then 0.0 else match float_of_string_opt s with Some n -> n | None -> Float.nan)
  | Vbytes b -> float_of_int b.blen
  | Vobj _ | Varr _ | Vfun _ -> Float.nan

let to_int v =
  let n = to_number v in
  if Float.is_nan n then 0 else int_of_float n

let rec equal a b =
  match (a, b) with
  | Vundefined, Vundefined | Vnull, Vnull | Vundefined, Vnull | Vnull, Vundefined -> true
  | Vbool x, Vbool y -> x = y
  | Vnum x, Vnum y -> x = y
  | Vstr x, Vstr y -> x = y
  | Vnum _, Vstr _ -> to_number b = to_number a
  | Vstr _, Vnum _ -> to_number a = to_number b
  | Vbool _, (Vnum _ | Vstr _) -> equal (Vnum (to_number a)) b
  | (Vnum _ | Vstr _), Vbool _ -> equal a (Vnum (to_number b))
  | Vbytes x, Vbytes y -> x == y
  | Vobj x, Vobj y -> x == y
  | Varr x, Varr y -> x == y
  | Vfun x, Vfun y -> x == y
  | _ -> false

(* Approximate heap footprint of a freshly created value, in bytes; the
   sandbox charges allocations against the per-context heap limit. *)
let alloc_size = function
  | Vstr s -> String.length s + 16
  | Vbytes b -> Bytes.length b.data + 24
  | Vobj _ -> 64
  | Varr a -> (Array.length a.items * 8) + 24
  | Vfun _ -> 48
  | Vundefined | Vnull | Vbool _ | Vnum _ -> 0

(* --- call-frame arena -------------------------------------------------- *)

(* Marks a frame slot whose declaration has not executed yet; compared
   with physical equality and never visible to scripts ([Compile]'s
   temporal-shadowing sentinel). Lives here so the per-context frame
   arena can wipe recycled frames. *)
let undeclared : t = Vstr "<nk-undeclared-slot>"

let frame_pool_sizes = 33 (* pooled frame sizes: 1 .. 32 slots *)

let frame_pool_depth = 16 (* recycled frames kept per size class *)

let frame_acquire ctx n =
  if n > 0 && n < frame_pool_sizes then
    match ctx.frame_pool.(n) with
    | f :: rest ->
      ctx.frame_pool.(n) <- rest;
      ctx.frame_pool_count.(n) <- ctx.frame_pool_count.(n) - 1;
      Array.fill f 0 n undeclared;
      f
    | [] -> Array.make n undeclared
  else Array.make n undeclared

let frame_release ctx f =
  let n = Array.length f in
  if n > 0 && n < frame_pool_sizes && ctx.frame_pool_count.(n) < frame_pool_depth then begin
    ctx.frame_pool.(n) <- f :: ctx.frame_pool.(n);
    ctx.frame_pool_count.(n) <- ctx.frame_pool_count.(n) + 1
  end
