(* The multi-pass static verifier for capacity plans, in the
   nk_analysis style: every pass reports position-carrying
   [Nk_analysis.Diagnostic]s; nothing mutates the plan. Passes:

   - {b units}: every setting key is known, carries the right unit
     kind, and sits in its legal range (percents in (0,100], durations
     positive, counts and sizes at least 1 and small enough to lower
     to an [int] exactly); site patterns are well-formed. This pass is
     also the one place a written value is normalized: it returns the
     {!resolved} plan every later pass, the compiler and [explain]
     read.
   - {b ordering}: effective low/high diffusion waters, breaker
     cooldown vs max, and quarantine base vs max are ordered — checked
     against the block's own settings with [Config.default] filling
     unset knobs, so [low = 0.9] alone is caught against the default
     high water.
   - {b feasibility}: per node block, the shares declared by site rules
     sum to at most 100% and each reserves at least one whole slot of
     that block's admission capacity. Share clauses must name concrete
     sites: a share on a wildcard pattern reserves capacity for
     unboundedly many tenants and no static check can make that sound.
   - {b shadowing}: a site rule (or node block) subsumed by an earlier
     pattern can never match — a warning, since the plan still has a
     well-defined meaning.

   The fifth check — that the lowered [Config] is one a node accepts —
   is [Config.validate], shared verbatim with node construction; the
   facade ([Provision.compile]) runs it after lowering. *)

module D = Nk_analysis.Diagnostic
module Config = Nk_node.Config

(* --- the knob vocabulary -------------------------------------------- *)

type kind =
  | Count (* positive integer: slots, fanout, failures, fuel *)
  | Duration_pos
  | Duration_nonneg
  | Water (* fraction of the pressure scale: 0.3 or 30% *)
  | Rate (* strictly positive fraction: 50% or 0.5 *)
  | Bytes (* 64mb or a bare byte count *)
  | Toggle

(* One node-level setting the language can express, and the Config
   field it lowers to. Values cross the row as the float [normalize]
   produces (flags as 0/1), so the verifier reads defaults through
   [get] exactly as it reads written settings. *)
type knob = {
  section : string;
  key : string;
  kind : kind;
  field : string; (* the Config field, as [explain] names it *)
  get : Config.t -> float;
  set : Config.t -> float -> Config.t;
  show : Config.t -> string; (* the field's value as [explain] prints it *)
}

(* Row builders by the field's OCaml type. Durations print in seconds
   and sizes in bytes unless a row names its own unit. *)
let unit_of kind = function
  | Some unit -> unit
  | None -> (
    match kind with Duration_pos | Duration_nonneg -> "s" | Bytes -> " bytes" | _ -> "")

let int_row ?unit section key kind field get set =
  let unit = unit_of kind unit in
  {
    section;
    key;
    kind;
    field;
    get = (fun c -> float_of_int (get c));
    (* exact: [normalize] keeps counts and sizes below [max_int] *)
    set = (fun c v -> set c (int_of_float v));
    show = (fun c -> Printf.sprintf "%d%s" (get c) unit);
  }

let float_row ?unit section key kind field get set =
  let unit = unit_of kind unit in
  { section; key; kind; field; get; set; show = (fun c -> Printf.sprintf "%g%s" (get c) unit) }

let flag_row section key field get set =
  {
    section;
    key;
    kind = Toggle;
    field;
    get = (fun c -> if get c then 1.0 else 0.0);
    set = (fun c v -> set c (v <> 0.0));
    show = (fun c -> if get c then "on" else "off");
  }

(* An absent optional subsystem reads as its module's default and drops
   writes; the diffusion section's [enabled] row is the only one that
   adds or removes a subsystem. *)
let admission_of c = Option.value c.Config.admission ~default:Nk_resource.Admission.default
let map_admission c f = { c with Config.admission = Option.map f c.Config.admission }
let diffusion_of c = Option.value c.Config.diffusion ~default:Nk_diffusion.Policy.default
let map_diffusion c f = { c with Config.diffusion = Option.map f c.Config.diffusion }

(* The single mapping from plan language to node config: the verifier
   checks against these rows, [Lower] writes through them in this order
   and [explain] prints through them. One row per line, so each knob is
   named on exactly one line. *)
let vocabulary =
  let open Config in
  [
    int_row "capacity" "admission" Count "admission_capacity" ~unit:" slots" (fun c -> (admission_of c).capacity) (fun c v -> map_admission c (fun a -> { a with capacity = v }));
    float_row "capacity" "target" Duration_pos "admission_target" (fun c -> (admission_of c).target) (fun c v -> map_admission c (fun a -> { a with target = v }));
    float_row "capacity" "interval" Duration_pos "admission_interval" (fun c -> (admission_of c).interval) (fun c v -> map_admission c (fun a -> { a with interval = v }));
    int_row "capacity" "fuel" Count "script_max_fuel" (fun c -> c.script_max_fuel) (fun c v -> { c with script_max_fuel = v });
    int_row "capacity" "heap" Bytes "script_max_heap" (fun c -> c.script_max_heap) (fun c v -> { c with script_max_heap = v });
    int_row "capacity" "cache" Bytes "cache_bytes" (fun c -> c.cache_bytes) (fun c v -> { c with cache_bytes = v });
    flag_row "diffusion" "enabled" "enable_diffusion" (fun c -> Option.is_some c.diffusion) (fun c v -> { c with diffusion = (if v then Some (diffusion_of c) else None) });
    float_row "diffusion" "low" Water "diffusion_low_water" (fun c -> (diffusion_of c).low_water) (fun c v -> map_diffusion c (fun d -> { d with low_water = v }));
    float_row "diffusion" "high" Water "diffusion_high_water" (fun c -> (diffusion_of c).high_water) (fun c v -> map_diffusion c (fun d -> { d with high_water = v }));
    int_row "diffusion" "fanout" Count "diffusion_fanout" (fun c -> (diffusion_of c).fanout) (fun c v -> map_diffusion c (fun d -> { d with fanout = v }));
    float_row "diffusion" "timeout" Duration_pos "diffusion_offload_timeout" (fun c -> (diffusion_of c).offload_timeout) (fun c v -> map_diffusion c (fun d -> { d with offload_timeout = v }));
    float_row "diffusion" "fetch-timeout" Duration_pos "diffusion_fetch_timeout" (fun c -> (diffusion_of c).fetch_timeout) (fun c v -> map_diffusion c (fun d -> { d with fetch_timeout = v }));
    float_row "diffusion" "staleness" Duration_pos "diffusion_staleness" (fun c -> (diffusion_of c).staleness) (fun c v -> map_diffusion c (fun d -> { d with staleness = v }));
    flag_row "hotspots" "enabled" "enable_hotspots" (fun c -> c.enable_hotspots) (fun c v -> { c with enable_hotspots = v });
    float_row "hotspots" "threshold" Count "hotspot_threshold" ~unit:" req/s" (fun c -> c.hotspot_threshold) (fun c v -> { c with hotspot_threshold = v });
    int_row "hotspots" "replicas" Count "hotspot_replicas" (fun c -> c.hotspot_replicas) (fun c v -> { c with hotspot_replicas = v });
    float_row "hotspots" "ttl" Duration_pos "hotspot_ttl" (fun c -> c.hotspot_ttl) (fun c v -> { c with hotspot_ttl = v });
    float_row "hotspots" "halflife" Duration_pos "hotspot_halflife" (fun c -> c.hotspot_halflife) (fun c v -> { c with hotspot_halflife = v });
    int_row "breaker" "failures" Count "breaker_failures" (fun c -> c.breaker.failure_threshold) (fun c v -> { c with breaker = { c.breaker with failure_threshold = v } });
    float_row "breaker" "error-rate" Rate "breaker_error_rate" (fun c -> c.breaker.error_rate) (fun c v -> { c with breaker = { c.breaker with error_rate = v } });
    float_row "breaker" "window" Duration_pos "breaker_window" (fun c -> c.breaker.window) (fun c v -> { c with breaker = { c.breaker with window = v } });
    float_row "breaker" "cooldown" Duration_pos "breaker_cooldown" (fun c -> c.breaker.cooldown) (fun c v -> { c with breaker = { c.breaker with cooldown = v } });
    float_row "breaker" "max" Duration_pos "breaker_max_cooldown" (fun c -> c.breaker.max_cooldown) (fun c v -> { c with breaker = { c.breaker with max_cooldown = v } });
    float_row "quarantine" "base" Duration_pos "termination_penalty" (fun c -> c.quarantine.base) (fun c v -> { c with quarantine = { c.quarantine with base = v } });
    float_row "quarantine" "max" Duration_pos "quarantine_max" (fun c -> c.quarantine.max_window) (fun c v -> { c with quarantine = { c.quarantine with max_window = v } });
    float_row "quarantine" "decay" Duration_nonneg "quarantine_decay" (fun c -> c.quarantine.decay) (fun c v -> { c with quarantine = { c.quarantine with decay = v } });
    float_row "deadline" "request" Duration_pos "request_deadline" (fun c -> c.request_deadline) (fun c v -> { c with request_deadline = v });
    flag_row "deadline" "hedge" "enable_hedging" (fun c -> c.enable_hedging) (fun c v -> { c with enable_hedging = v });
    float_row "deadline" "hedge-rate" Rate "hedge_rate" (fun c -> c.hedge_rate) (fun c v -> { c with hedge_rate = v });
    float_row "deadline" "retry_budget" Rate "retry_budget_ratio" (fun c -> c.retry_budget_ratio) (fun c v -> { c with retry_budget_ratio = v });
  ]

let sections =
  List.fold_left
    (fun acc k -> if List.mem k.section acc then acc else acc @ [ k.section ])
    [] vocabulary

let find_knob ~section ~key =
  List.find_opt (fun k -> k.section = section && k.key = key) vocabulary

(* The rows the passes themselves name, by their plan keys. *)
let knob section key = Option.get (find_knob ~section ~key)

let admission = knob "capacity" "admission"

(* Counts and sizes lower through [int_of_float], which is exact only
   below this bound. *)
let int_limit = Float.of_int max_int

(* Normalize a written value to the float the kind lowers to (flags to
   0/1), or explain why it cannot. *)
let normalize kind (v : Ast.value) =
  let wrong expected = Error (Printf.sprintf "expected %s, got %s" expected (Ast.kind_label v)) in
  let too_large what = Error (Printf.sprintf "%s must be below %.0f" what int_limit) in
  match (kind, v) with
  | Count, Ast.Number f ->
    if Float.rem f 1.0 <> 0.0 then Error "expected a whole number"
    else if f < 1.0 then Error "must be at least 1"
    else if f >= int_limit then too_large "count"
    else Ok f
  | Count, _ -> wrong "a bare count"
  | Duration_pos, Ast.Duration s ->
    if s <= 0.0 then Error "duration must be positive" else Ok s
  | Duration_nonneg, Ast.Duration s ->
    if s < 0.0 then Error "duration must not be negative" else Ok s
  | (Duration_pos | Duration_nonneg), _ -> wrong "a duration (e.g. 500ms, 2s, 5m)"
  | Water, Ast.Percent p ->
    if p < 0.0 || p > 100.0 then Error "percent must be between 0% and 100%" else Ok (p /. 100.0)
  | Water, Ast.Number f ->
    if f < 0.0 || f > 1.0 then Error "a bare water level must be between 0 and 1" else Ok f
  | Water, _ -> wrong "a fraction (0.3) or percent (30%)"
  | Rate, Ast.Percent p ->
    if p <= 0.0 || p > 100.0 then Error "percent must be in (0%, 100%]" else Ok (p /. 100.0)
  | Rate, Ast.Number f ->
    if f <= 0.0 || f > 1.0 then Error "a bare rate must be in (0, 1]" else Ok f
  | Rate, _ -> wrong "a rate (0.5 or 50%)"
  (* Anything under a whole byte would truncate to 0 — a cap the node
     refuses. Require >= 1. *)
  | Bytes, Ast.Size b ->
    if b < 1.0 then Error "size must be at least one byte"
    else if b >= int_limit then too_large "size"
    else Ok b
  | Bytes, Ast.Number b ->
    if b < 1.0 then Error "byte count must be at least one byte"
    else if b >= int_limit then too_large "byte count"
    else Ok b
  | Bytes, _ -> wrong "a size (64mb) or byte count"
  | Toggle, Ast.Flag b -> Ok (if b then 1.0 else 0.0)
  | Toggle, _ -> wrong "on or off"

(* A site pattern is an exact host, "*", or "*.suffix". *)
let pattern_problem pattern =
  if pattern = "" then Some "site pattern is empty"
  else if pattern = "*" then None
  else if String.contains pattern '*' then
    if String.length pattern > 2 && String.sub pattern 0 2 = "*."
       && not (String.contains_from pattern 2 '*')
    then None
    else Some "wildcards must be \"*\" or \"*.suffix\""
  else None

(* Which earlier rule, if any, makes this one unreachable? *)
let shadowed_by earlier pattern =
  List.find_opt (fun (p, _) -> Ast.subsumes ~pattern:p ~other:pattern) earlier

(* --- the resolved plan ------------------------------------------------ *)

(* A node block's well-formed settings, normalized, in source order. A
   knob set twice keeps its first value. *)
type block = { node : Ast.node_block; settings : (knob * float * Ast.pos) list }

(* A site clause whose value passed the units pass. *)
type clause =
  | Share of float * Ast.pos (* percent as written *)
  | Fuel of int
  | Heap of int
  | Window of float * float * Ast.pos (* quarantine base, max; base's position *)

type site = {
  rule : Ast.site_rule;
  reachable : bool; (* no earlier pattern subsumes this one *)
  clauses : clause list; (* the well-formed clauses, in source order *)
}

type resolved = { plan : Ast.t; blocks : block list; sites : site list }

(* The block's value for [knob], when it sets one. *)
let setting block knob =
  List.find_map (fun (k, v, pos) -> if k == knob then Some (v, pos) else None) block.settings

(* The clause a rule lowers for each kind is its first well-formed one. *)
let first pick site = List.find_map pick site.clauses

let share = first (function Share (p, pos) -> Some (p, pos) | _ -> None)

(* --- units / ranges --------------------------------------------------- *)

let units_pass (plan : Ast.t) =
  let diags = ref [] in
  let report d = diags := d :: !diags in
  let check_pattern ~what pattern pos =
    match pattern_problem pattern with
    | Some why -> report (D.error "bad-pattern" pos "%s pattern %S: %s" what pattern why)
    | None -> ()
  in
  let normalized kind v pos ~what =
    match normalize kind v with
    | Ok f -> Some f
    | Error why ->
      report (D.error "unit-mismatch" pos "%s: %s" what why);
      None
  in
  let resolve_setting ~seen section settings (s : Ast.setting) =
    match find_knob ~section ~key:s.Ast.key with
    | None ->
      let known =
        List.filter_map (fun k -> if k.section = section then Some k.key else None) vocabulary
      in
      report
        (D.error "unknown-key" s.Ast.key_pos "unknown %s setting %S (expected %s)" section
           s.Ast.key (String.concat ", " known));
      settings
    | Some knob -> (
      let what = section ^ "." ^ s.Ast.key in
      (* A knob written twice in one block keeps its first well-formed
         value; the repeat is flagged, not applied. *)
      (match Hashtbl.find_opt seen what with
       | Some (first : Ast.pos) ->
         report
           (D.warning "duplicate-key" s.Ast.key_pos "%s is already set on line %d" what
              first.Nk_script.Ast.line)
       | None -> Hashtbl.add seen what s.Ast.key_pos);
      match normalized knob.kind s.Ast.value s.Ast.value_pos ~what with
      | Some v when not (List.exists (fun (k, _, _) -> k == knob) settings) ->
        (knob, v, s.Ast.value_pos) :: settings
      | _ -> settings)
  in
  let resolve_block (block : Ast.node_block) =
    check_pattern ~what:"node" block.Ast.node_pattern block.Ast.node_pos;
    let seen = Hashtbl.create 8 in
    let settings =
      List.fold_left
        (fun settings (sec : Ast.section) ->
          if List.mem sec.Ast.section sections then
            List.fold_left (resolve_setting ~seen sec.Ast.section) settings sec.Ast.settings
          else begin
            report
              (D.error "unknown-section" sec.Ast.section_pos "unknown section %S (expected %s)"
                 sec.Ast.section (String.concat ", " sections));
            settings
          end)
        [] block.Ast.sections
    in
    { node = block; settings = List.rev settings }
  in
  let resolve_clause = function
    | Ast.Share (Ast.Percent p, pos) ->
      if p <= 0.0 || p > 100.0 then begin
        report (D.error "share-out-of-range" pos "share must be in (0%%, 100%%], got %g%%" p);
        None
      end
      else Some (Share (p, pos))
    | Ast.Share (other, pos) ->
      report
        (D.error "unit-mismatch" pos "share must be a percent (e.g. 30%%), got %s"
           (Ast.kind_label other));
      None
    | Ast.Fuel (v, pos) ->
      Option.map (fun f -> Fuel (int_of_float f)) (normalized Count v pos ~what:"fuel cap")
    | Ast.Heap (v, pos) ->
      Option.map (fun b -> Heap (int_of_float b)) (normalized Bytes v pos ~what:"heap cap")
    | Ast.Quarantine_window { base; base_pos; max_; max_pos } -> (
      let b = normalized Duration_pos base base_pos ~what:"quarantine base" in
      let m = normalized Duration_pos max_ max_pos ~what:"quarantine max" in
      match (b, m) with Some b, Some m -> Some (Window (b, m, base_pos)) | _ -> None)
  in
  let blocks = List.map resolve_block (Ast.nodes plan) in
  let sites, _ =
    List.fold_left
      (fun (sites, earlier) (rule : Ast.site_rule) ->
        check_pattern ~what:"site" rule.Ast.pattern rule.Ast.pattern_pos;
        let site =
          {
            rule;
            reachable = shadowed_by earlier rule.Ast.pattern = None;
            clauses = List.filter_map resolve_clause rule.Ast.clauses;
          }
        in
        (site :: sites, (rule.Ast.pattern, rule.Ast.pattern_pos) :: earlier))
      ([], []) (Ast.sites plan)
  in
  ({ plan; blocks; sites = List.rev sites }, !diags)

(* --- ordering --------------------------------------------------------- *)

let ordering_pass (r : resolved) =
  let diags = ref [] in
  (* [low] and [high] must satisfy [legal]. A pair is checked once the
     block sets either side, the other side falling back to its
     default; [message] learns which key, if any, was defaulted. *)
  let pair block ~low ~high ~legal ~code message =
    let value knob =
      match setting block knob with
      | Some (v, pos) -> (v, Some pos)
      | None -> (knob.get Config.default, None)
    in
    let lv, lpos = value low and hv, hpos = value high in
    match (lpos, hpos) with
    | (Some pos, _ | None, Some pos) when not (legal lv hv) ->
      let defaulted =
        match (lpos, hpos) with
        | Some _, None -> Some high.key
        | None, Some _ -> Some low.key
        | _ -> None
      in
      diags := D.error code pos "%s" (message lv hv defaulted) :: !diags
    | _ -> ()
  in
  List.iter
    (fun block ->
      pair block ~low:(knob "diffusion" "low") ~high:(knob "diffusion" "high") ~legal:( < )
        ~code:"inverted-waters" (fun lv hv defaulted ->
          Printf.sprintf "diffusion waters: low (%g) must be below high (%g)%s" lv hv
            (match defaulted with Some key -> Printf.sprintf " (the default %s)" key | None -> ""));
      pair block ~low:(knob "breaker" "cooldown") ~high:(knob "breaker" "max") ~legal:( <= )
        ~code:"breaker-cooldown-exceeds-max" (fun cooldown max_cd _ ->
          Printf.sprintf "breaker cooldown (%gs) exceeds the backoff cap (%gs)" cooldown max_cd);
      pair block ~low:(knob "quarantine" "base") ~high:(knob "quarantine" "max") ~legal:( <= )
        ~code:"quarantine-base-exceeds-max" (fun base max_w _ ->
          Printf.sprintf "quarantine base window (%gs) exceeds the cap (%gs)" base max_w))
    r.blocks;
  (* Per-site quarantine windows carry both bounds in one clause. *)
  List.iter
    (fun site ->
      List.iter
        (function
          | Window (b, m, pos) when b > m ->
            diags :=
              D.error "quarantine-base-exceeds-max" pos
                "site %S: quarantine base window (%gs) exceeds its max (%gs)"
                site.rule.Ast.pattern b m
              :: !diags
          | _ -> ())
        site.clauses)
    r.sites;
  !diags

(* --- shadowing / dominance ------------------------------------------- *)

let shadow_pass (plan : Ast.t) =
  let diags = ref [] in
  let walk items ~what =
    ignore
      (List.fold_left
         (fun earlier (pattern, pos) ->
           (match shadowed_by earlier pattern with
            | Some (by, by_pos) ->
              diags :=
                D.warning "shadowed-rule" pos
                  "%s %S can never match: every site it covers is claimed by %S (line %d)"
                  what pattern by by_pos.Nk_script.Ast.line
                :: !diags
            | None -> ());
           (pattern, pos) :: earlier)
         [] items)
  in
  walk
    (List.map (fun (r : Ast.site_rule) -> (r.Ast.pattern, r.Ast.pattern_pos)) (Ast.sites plan))
    ~what:"site rule";
  walk
    (List.map (fun (b : Ast.node_block) -> (b.Ast.node_pattern, b.Ast.node_pos)) (Ast.nodes plan))
    ~what:"node block";
  !diags

(* --- feasibility ------------------------------------------------------ *)

(* Admission capacity a node would run with: its block's own setting,
   else the compiled default. *)
let capacity block =
  match Option.bind block (fun b -> setting b admission) with
  | Some (v, _) -> int_of_float v
  | None -> int_of_float (admission.get Config.default)

let feasibility_pass (r : resolved) =
  let diags = ref [] in
  let shares =
    List.filter_map
      (fun site ->
        match share site with
        | Some (percent, pos) when site.reachable ->
          let pattern = site.rule.Ast.pattern in
          if String.contains pattern '*' then begin
            diags :=
              D.error "share-on-wildcard" pos
                "site %S: a share on a wildcard pattern reserves capacity for unboundedly \
                 many tenants; name each tenant site explicitly"
                pattern
              :: !diags;
            None
          end
          else Some (pattern, percent, pos)
        | _ -> None)
      r.sites
  in
  let total = List.fold_left (fun acc (_, p, _) -> acc +. p) 0.0 shares in
  (if total > 100.0 +. 1e-9 then
     match List.rev shares with
     | (pattern, _, pos) :: _ ->
       diags :=
         D.error "shares-infeasible" pos
           "declared shares sum to %g%% of admission capacity (over 100%%); site %S is the \
            rule that crosses the line"
           total pattern
         :: !diags
     | [] -> ());
  (* Every declared share must also land on at least one whole queue
     slot on every node block it applies to (all of them: site rules
     are not node-scoped). *)
  let blocks =
    match r.blocks with
    | [] -> [ ("(default)", capacity None) ]
    (* no node block: shares apply to default-configured nodes *)
    | blocks -> List.map (fun b -> (b.node.Ast.node_pattern, capacity (Some b))) blocks
  in
  List.iter
    (fun (pattern, percent, pos) ->
      List.iter
        (fun (node_pattern, capacity) ->
          if percent /. 100.0 *. float_of_int capacity < 0.5 then
            diags :=
              D.error "share-rounds-to-zero" pos
                "site %S: a %g%% share of node %S's admission capacity (%d slots) rounds to \
                 zero slots"
                pattern percent node_pattern capacity
              :: !diags)
        blocks)
    shares;
  !diags

(* --- the pass pipeline ------------------------------------------------ *)

(* The sorted diagnostics of every pass, and the resolved plan the
   compiler lowers once they hold no error. *)
let check (plan : Ast.t) =
  let resolved, units = units_pass plan in
  ( resolved,
    List.sort D.compare
      (units @ ordering_pass resolved @ feasibility_pass resolved @ shadow_pass plan) )
