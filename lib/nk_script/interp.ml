open Value

type ctx = Value.ctx = {
  globals : Value.scope;
  max_fuel : int;
  max_heap : int;
  mutable fuel_used : int;
  mutable heap_used : int;
  mutable killed : bool;
  mutable usage_observer : (fuel:int -> heap:int -> unit) option;
  frame_pool : Value.t array list array;
  frame_pool_count : int array;
}

exception Resource_exhausted = Value.Resource_exhausted

exception Terminated = Value.Terminated

(* Non-local control flow of compiled code. *)
exception Return_exc of Value.t

exception Break_exc

exception Continue_exc

exception Throw_exc of Value.t

let create ?(max_fuel = 5_000_000) ?(max_heap_bytes = 64 * 1024 * 1024) () =
  {
    globals = Hashtbl.create 64;
    max_fuel;
    max_heap = max_heap_bytes;
    fuel_used = 0;
    heap_used = 0;
    killed = false;
    usage_observer = None;
    frame_pool = Array.make Value.frame_pool_sizes [];
    frame_pool_count = Array.make Value.frame_pool_sizes 0;
  }

let define_global ctx name v = Hashtbl.replace ctx.globals name (ref v)

let get_global ctx name = Option.map (fun r -> !r) (Hashtbl.find_opt ctx.globals name)

let fuel_used ctx = ctx.fuel_used

let heap_used ctx = ctx.heap_used

let set_usage_observer ctx f = ctx.usage_observer <- Some f

let reset_usage ctx =
  (* The counters are zeroed between requests, so this is the natural
     place to publish "what the last pipeline consumed" to telemetry. *)
  (match ctx.usage_observer with
   | Some f when ctx.fuel_used > 0 || ctx.heap_used > 0 ->
     f ~fuel:ctx.fuel_used ~heap:ctx.heap_used
   | _ -> ());
  ctx.fuel_used <- 0;
  ctx.heap_used <- 0

let kill ctx = ctx.killed <- true

let revive ctx = ctx.killed <- false

let charge_fuel ctx n =
  if ctx.killed then raise Terminated;
  ctx.fuel_used <- ctx.fuel_used + n;
  if ctx.fuel_used > ctx.max_fuel then raise (Resource_exhausted "fuel limit exceeded")

let consume_fuel ctx n = charge_fuel ctx (max 0 n)

(* Sizes of results not built yet, on non-negative operands: a size no
   string could reach saturates at [max_int] instead of wrapping. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

let charge_bytes ctx n =
  ctx.heap_used <- sat_add ctx.heap_used n;
  if ctx.heap_used > ctx.max_heap then raise (Resource_exhausted "heap limit exceeded")

let charge_alloc ctx v = charge_bytes ctx (alloc_size v)

(* What [charge_alloc] charges for a [len]-byte string, paid before the
   string is built, so a result that would break the heap cap is never
   allocated. *)
let charge_string ctx len = charge_bytes ctx (sat_add len 16)

(* Array text inside the sandbox: each nested array is charged as a
   string before it is built, and the heap limit stops the rest. The
   outermost array is the caller's result to charge, so a flat array
   costs what it always has. *)
let element_texts ctx a = Value.element_texts ~charge:(charge_string ctx) [ a ] a

let text ctx = function Varr a -> String.concat "," (element_texts ctx a) | v -> to_string v

(* The length of [parts] joined with [sep], saturating. *)
let joined_size sep parts =
  List.fold_left
    (fun n p -> sat_add n (String.length p))
    (sat_mul (max 0 (List.length parts - 1)) (String.length sep))
    parts

(* [text a ^ text b] for [+], charged as a string before it is built:
   a flat array holding one large string many times has text far
   larger than the array itself. *)
let concat_text ctx a b =
  let texts = function Varr arr -> element_texts ctx arr | v -> [ to_string v ] in
  let ta = texts a in
  let tb = texts b in
  charge_string ctx (sat_add (joined_size "," ta) (joined_size "," tb));
  let join = function [ s ] -> s | parts -> String.concat "," parts in
  join ta ^ join tb

(* The slot an integral index names, or -1 when no array can have it.
   Compared in float space because [int_of_float] wraps huge values:
   converted first, [a[1e300]] would alias [a[0]]. *)
let max_index = float_of_int Sys.max_array_length

let slot_index n = if n >= 0.0 && n < max_index then int_of_float n else -1

(* --- built-in methods on primitive values ------------------------- *)

let str_index s i = if i >= 0 && i < String.length s then Vstr (String.make 1 s.[i]) else Vundefined

let string_method ctx s name args =
  (* One-shot array view: indexed argument access is O(1) instead of a
     List.nth walk per access. *)
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let arg i = if i < nargs then argv.(i) else Vundefined in
  let iarg i = to_int (arg i) in
  let sarg i = to_string (arg i) in
  let ret v =
    charge_alloc ctx v;
    v
  in
  match name with
  | "charAt" -> ret (match str_index s (iarg 0) with Vundefined -> Vstr "" | v -> v)
  | "charCodeAt" ->
    let i = iarg 0 in
    if i >= 0 && i < String.length s then Vnum (float_of_int (Char.code s.[i])) else Vnum Float.nan
  | "indexOf" -> (
    match Nk_util.Strutil.index_sub s ~sub:(sarg 0) ~start:(iarg 1) with
    | Some i -> Vnum (float_of_int i)
    | None -> Vnum (-1.0))
  | "substring" | "slice" ->
    let len = String.length s in
    let clamp i = if i < 0 then max 0 (len + i) else min i len in
    let a = clamp (iarg 0) in
    let b = if nargs > 1 then clamp (iarg 1) else len in
    let a, b = if a <= b then (a, b) else (b, a) in
    ret (Vstr (String.sub s a (b - a)))
  | "split" ->
    let sep = sarg 0 in
    let parts =
      if sep = "" then List.init (String.length s) (fun i -> String.make 1 s.[i])
      else
        (* split on the literal separator *)
        let rec go start acc =
          match Nk_util.Strutil.index_sub s ~sub:sep ~start with
          | Some i ->
            go (i + String.length sep) (String.sub s start (i - start) :: acc)
          | None -> List.rev (String.sub s start (String.length s - start) :: acc)
        in
        go 0 []
    in
    ret (Varr (new_arr (List.map (fun p -> Vstr p) parts)))
  | "toLowerCase" -> ret (Vstr (String.lowercase_ascii s))
  | "toUpperCase" -> ret (Vstr (String.uppercase_ascii s))
  | "trim" -> ret (Vstr (String.trim s))
  | "startsWith" -> Vbool (Nk_util.Strutil.starts_with ~prefix:(sarg 0) s)
  | "endsWith" -> Vbool (Nk_util.Strutil.ends_with ~suffix:(sarg 0) s)
  | "includes" -> Vbool (Nk_util.Strutil.contains_sub s ~sub:(sarg 0))
  | "replace" ->
    let sub = sarg 0 and by = sarg 1 in
    let hits = Nk_util.Strutil.count_sub s ~sub in
    let kept = String.length s - (hits * String.length sub) in
    charge_string ctx (sat_add kept (sat_mul hits (String.length by)));
    Vstr (Nk_util.Strutil.replace_all s ~sub ~by)
  | "concat" -> ret (Vstr (s ^ String.concat "" (List.map to_string args)))
  | "repeat" ->
    let n = iarg 0 in
    if n < 0 then error "repeat count must be non-negative";
    let len = String.length s in
    charge_string ctx (sat_mul len n);
    if len = 0 || n = 0 then Vstr ""
    else begin
      let out = Bytes.create (len * n) in
      for i = 0 to n - 1 do
        Bytes.blit_string s 0 out (i * len) len
      done;
      Vstr (Bytes.unsafe_to_string out)
    end
  | "toString" -> Vstr s
  | _ -> error "string has no method '%s'" name

let bytes_method ctx b name args =
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let arg i = if i < nargs then argv.(i) else Vundefined in
  match name with
  | "append" ->
    let s =
      match arg 0 with
      | Vbytes other -> bytes_to_string other
      | v -> to_string v
    in
    charge_bytes ctx (String.length s);
    bytes_append b s;
    Vundefined
  | "toString" ->
    let v = Vstr (bytes_to_string b) in
    charge_alloc ctx v;
    v
  | "slice" ->
    let len = b.blen in
    let clamp i = if i < 0 then max 0 (len + i) else min i len in
    let a = clamp (to_int (arg 0)) in
    let e = if nargs > 1 then clamp (to_int (arg 1)) else len in
    let a, e = if a <= e then (a, e) else (e, a) in
    let v = Vbytes (bytes_of_string (Bytes.sub_string b.data a (e - a))) in
    charge_alloc ctx v;
    v
  | "clear" ->
    b.blen <- 0;
    Vundefined
  | _ -> error "bytearray has no method '%s'" name

(* --- calls and value-level operations ------------------------------ *)

let apply_fn ctx ~this f args =
  charge_fuel ctx 4;
  match f with
  | Vfun (Native_fn nf) -> nf.call (if this = Vundefined then None else Some this) args
  | Vfun (Compiled_fn cf) -> cf.code.ccall ctx ~this ~globals:cf.cglobals cf.captured args
  | v -> error "%s is not a function" (type_name v)

let array_method ctx a name args =
  let argv = Array.of_list args in
  let nargs = Array.length argv in
  let arg i = if i < nargs then argv.(i) else Vundefined in
  let ret v =
    charge_alloc ctx v;
    v
  in
  match name with
  | "push" ->
    List.iter (fun v -> arr_push a v) args;
    Vnum (float_of_int a.len)
  | "pop" ->
    if a.len = 0 then Vundefined
    else begin
      a.len <- a.len - 1;
      a.items.(a.len)
    end
  | "shift" ->
    if a.len = 0 then Vundefined
    else begin
      let first = a.items.(0) in
      Array.blit a.items 1 a.items 0 (a.len - 1);
      a.len <- a.len - 1;
      first
    end
  | "join" ->
    let sep = match arg 0 with Vundefined -> "," | v -> text ctx v in
    let parts = element_texts ctx a in
    charge_string ctx (joined_size sep parts);
    Vstr (String.concat sep parts)
  | "indexOf" ->
    let target = arg 0 in
    let rec go i =
      if i >= a.len then Vnum (-1.0)
      else if equal a.items.(i) target then Vnum (float_of_int i)
      else go (i + 1)
    in
    go 0
  | "includes" ->
    let target = arg 0 in
    let rec go i = i < a.len && (equal a.items.(i) target || go (i + 1)) in
    Vbool (go 0)
  | "slice" ->
    let clamp i = if i < 0 then max 0 (a.len + i) else min i a.len in
    let s = clamp (to_int (arg 0)) in
    let e = if nargs > 1 then clamp (to_int (arg 1)) else a.len in
    let e = max s e in
    ret (Varr (new_arr (Array.to_list (Array.sub a.items s (e - s)))))
  | "concat" ->
    let extra =
      List.concat_map (function Varr other -> arr_to_list other | v -> [ v ]) args
    in
    ret (Varr (new_arr (arr_to_list a @ extra)))
  | "reverse" ->
    let items = Array.sub a.items 0 a.len in
    Array.iteri (fun i v -> a.items.(a.len - 1 - i) <- v) items;
    Varr a
  | "map" ->
    let f = arg 0 in
    ret
      (Varr
         (new_arr
            (List.mapi
               (fun i v -> apply_fn ctx ~this:Vundefined f [ v; Vnum (float_of_int i) ])
               (arr_to_list a))))
  | "filter" ->
    let f = arg 0 in
    ret
      (Varr
         (new_arr
            (List.filter
               (fun v -> truthy (apply_fn ctx ~this:Vundefined f [ v ]))
               (arr_to_list a))))
  | "forEach" ->
    let f = arg 0 in
    List.iteri
      (fun i v -> ignore (apply_fn ctx ~this:Vundefined f [ v; Vnum (float_of_int i) ]))
      (arr_to_list a);
    Vundefined
  | "sort" ->
    let items = Array.sub a.items 0 a.len in
    let cmp =
      match arg 0 with
      | Vfun _ as f ->
        fun x y ->
          let r = to_number (apply_fn ctx ~this:Vundefined f [ x; y ]) in
          if r < 0.0 then -1 else if r > 0.0 then 1 else 0
      | _ -> fun x y -> String.compare (to_string x) (to_string y)
    in
    Array.sort cmp items;
    Array.blit items 0 a.items 0 a.len;
    Varr a
  | _ -> error "array has no method '%s'" name

let member_get ctx obj name =
  match obj with
  | Vobj o -> obj_get o name
  | Vstr s -> (
    match name with
    | "length" -> Vnum (float_of_int (String.length s))
    | _ -> native name (fun _ args -> string_method ctx s name args))
  | Vbytes b -> (
    match name with
    | "length" -> Vnum (float_of_int b.blen)
    | _ -> native name (fun _ args -> bytes_method ctx b name args))
  | Varr a -> (
    match name with
    | "length" -> Vnum (float_of_int a.len)
    | _ -> native name (fun _ args -> array_method ctx a name args))
  | Vnull | Vundefined -> error "cannot read property '%s' of %s" name (to_string obj)
  | Vnum _ | Vbool _ | Vfun _ -> Vundefined

let index_get ctx obj idx =
  match obj with
  | Varr a -> (
    match idx with
    | Vnum n when Float.is_integer n -> arr_get a (slot_index n)
    | _ -> member_get ctx obj (to_string idx))
  | Vstr s -> (
    match idx with
    | Vnum n when Float.is_integer n -> str_index s (slot_index n)
    | _ -> member_get ctx obj (to_string idx))
  | Vbytes b -> (
    match idx with
    | Vnum n when Float.is_integer n ->
      let i = slot_index n in
      if i >= 0 && i < b.blen then Vnum (float_of_int (Char.code (Bytes.get b.data i)))
      else Vundefined
    | _ -> member_get ctx obj (to_string idx))
  | Vobj o -> obj_get o (to_string idx)
  | _ -> error "cannot index a %s" (type_name obj)

let index_set ctx obj idx value =
  match obj with
  | Varr a ->
    let i = match idx with Vnum n when Float.is_integer n -> slot_index n | _ -> -1 in
    if i < 0 then error "bad array index %s" (to_string idx);
    (* The holes a write past the end opens are charged before the
       array grows. *)
    if i > a.len then charge_bytes ctx (8 * (i - a.len));
    arr_set a i value
  | Vobj o -> obj_set o (to_string idx) value
  | Vbytes b -> (
    match idx with
    | Vnum n when Float.is_integer n ->
      let i = slot_index n in
      if i < 0 || i >= b.blen then error "bytearray index %s out of bounds" (to_string idx);
      Bytes.set b.data i (Char.chr (to_int value land 0xFF))
    | _ -> error "bad bytearray index %s" (to_string idx))
  | v -> error "cannot index-assign a %s" (type_name v)

let invoke_method ctx obj name args =
  (* Method call: bind [this] and route primitive builtins. *)
  match obj with
  | Vobj o -> (
    match obj_get o name with
    | Vfun _ as f -> apply_fn ctx ~this:obj f args
    | Vundefined -> error "object has no method '%s'" name
    | v -> error "property '%s' is not a function (%s)" name (type_name v))
  | Vstr s -> string_method ctx s name args
  | Vbytes b -> bytes_method ctx b name args
  | Varr a -> array_method ctx a name args
  | v -> error "cannot call method '%s' on a %s" name (type_name v)

let apply ctx f args = apply_fn ctx ~this:Vundefined f args

let construct ctx ctor args =
  match ctor with
  | Vfun (Native_fn nf) -> nf.call None args
  | Vfun (Compiled_fn _) -> (
    let o = new_obj () in
    charge_alloc ctx (Vobj o);
    match apply_fn ctx ~this:(Vobj o) ctor args with
    | (Vobj _ | Varr _) as result -> result
    | _ -> Vobj o)
  | v -> error "%s is not a constructor" (type_name v)
