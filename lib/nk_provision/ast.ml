(* The position-carrying typed IR of the capacity-plan language.

   A plan is a flat list of items in source order:

   - [node "PATTERN" { capacity {...} diffusion {...} hotspots {...}
     breaker {...} quarantine {...} deadline {...} }] blocks carry
     node-level knob settings; the pattern selects which nodes the
     block configures ("*" is every node, "*.suffix" a name suffix,
     anything else an exact host).
   - [site "PATTERN" { share >= 30%; fuel <= 40000; heap <= 4mb;
     quarantine base 2s max 5m }] rules carry per-site guarantees and
     caps; like the admission share table they compile into, rules
     resolve first-match in source order.

   Values keep their written unit ([Percent], [Duration], [Size]) so
   the verifier's units pass can reject a share given in seconds with a
   message pointing at the offending token, not at a lowered float. *)

type pos = Nk_script.Ast.pos

type value =
  | Number of float (* a bare count: 64, 0.3, 40000 *)
  | Percent of float (* 30% — stored as written (30.0) *)
  | Duration of float (* 500ms / 2s / 5m / 1h — seconds *)
  | Size of float (* 4kb / 64mb / 1gb — bytes *)
  | Flag of bool (* on / off *)

let kind_label = function
  | Number _ -> "number"
  | Percent _ -> "percent"
  | Duration _ -> "duration"
  | Size _ -> "size"
  | Flag _ -> "flag"

let value_to_string = function
  | Number f -> Printf.sprintf "%g" f
  | Percent f -> Printf.sprintf "%g%%" f
  | Duration f -> Printf.sprintf "%gs" f
  | Size f -> Printf.sprintf "%gb" f
  | Flag b -> if b then "on" else "off"

type setting = { key : string; key_pos : pos; value : value; value_pos : pos }

type section = { section : string; section_pos : pos; settings : setting list }

type clause =
  | Share of value * pos
  | Fuel of value * pos
  | Heap of value * pos
  | Quarantine_window of { base : value; base_pos : pos; max_ : value; max_pos : pos }

type site_rule = { pattern : string; pattern_pos : pos; clauses : clause list }

type node_block = { node_pattern : string; node_pos : pos; sections : section list }

type item = Node of node_block | Site of site_rule

type t = {
  items : item list;
  source : string;
  hash : string; (* SHA-256 (hex) of the plan text, the deployment's audit handle *)
}

let nodes t = List.filter_map (function Node b -> Some b | Site _ -> None) t.items

let sites t = List.filter_map (function Site s -> Some s | Node _ -> None) t.items

(* Does [pattern] subsume [other] — is every site matched by [other]
   also matched by [pattern]? The shadowing pass calls a later rule
   unreachable exactly when an earlier one subsumes it. *)
let subsumes ~pattern ~other =
  let suffix p = String.sub p 1 (String.length p - 1) in
  let is_wild p = String.length p > 2 && String.sub p 0 2 = "*." in
  if pattern = "*" then true
  else if other = "*" then false
  else if is_wild pattern then
    if is_wild other then
      let ps = suffix pattern and os = suffix other in
      String.length os >= String.length ps
      && String.sub os (String.length os - String.length ps) (String.length ps) = ps
    else Nk_resource.Shares.matches ~pattern other
  else pattern = other
