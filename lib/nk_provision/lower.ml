(* Lowering: a verified plan to the [Nk_node.Config] values the nodes
   it provisions will run. Lowering reads the plan the verifier resolved
   (every value already normalized, every setting already mapped to its
   [Verify.vocabulary] row), so it has no cases of its own, and it is
   deterministic: the same plan text always produces the same configs,
   which is what makes the plan hash an audit handle for a deployment's
   resource policy. *)

module Config = Nk_node.Config

type lowered = {
  node_pattern : string; (* which nodes this config provisions *)
  node_pos : Ast.pos;
  config : Config.t;
}

(* Lower the resolved plan: each node block writes its settings through
   the vocabulary rows over [Config.default], in vocabulary order, so a
   section's [enabled] row runs before the rest of that section; site
   rules lower into the per-site tables, in declaration order (first
   match wins at runtime, same as in the plan). Shadowed rules are
   dropped — the verifier already warned — so the runtime tables
   contain only rules that can fire. *)
let lower (r : Verify.resolved) =
  let reachable = List.filter (fun (s : Verify.site) -> s.Verify.reachable) r.Verify.sites in
  let table pick =
    List.filter_map
      (fun (s : Verify.site) ->
        Option.map (fun v -> (s.Verify.rule.Ast.pattern, v)) (Verify.first pick s))
      reachable
  in
  let shares = table (function Verify.Share (p, _) -> Some (p /. 100.0) | _ -> None) in
  let site_params =
    List.map
      (fun (pattern, (b, m)) -> (pattern, b, m))
      (table (function Verify.Window (b, m, _) -> Some (b, m) | _ -> None))
  in
  let site_fuel = table (function Verify.Fuel n -> Some n | _ -> None) in
  let site_heap = table (function Verify.Heap n -> Some n | _ -> None) in
  let with_sites config =
    let config = Verify.map_admission config (fun a -> { a with shares }) in
    {
      config with
      Config.quarantine = { config.Config.quarantine with site_params };
      site_fuel;
      site_heap;
      plan_hash = Some r.Verify.plan.Ast.hash;
    }
  in
  match r.Verify.blocks with
  | [] ->
    (* A plan of only site rules provisions every node off the default
       config — an implicit [node "*" {}] block. *)
    [
      {
        node_pattern = "*";
        node_pos = { Nk_script.Ast.line = 1; col = 1 };
        config = with_sites Config.default;
      };
    ]
  | blocks ->
    List.map
      (fun (b : Verify.block) ->
        let config =
          List.fold_left
            (fun c knob ->
              match Verify.setting b knob with Some (v, _) -> knob.Verify.set c v | None -> c)
            Config.default Verify.vocabulary
        in
        {
          node_pattern = b.Verify.node.Ast.node_pattern;
          node_pos = b.Verify.node.Ast.node_pos;
          config = with_sites config;
        })
      blocks

(* The config a named node runs: first node block whose pattern matches,
   same matcher the runtime share tables use. *)
let config_for lowered ~node =
  List.find_map
    (fun l ->
      if Nk_resource.Shares.matches ~pattern:l.node_pattern node then Some l.config else None)
    lowered

(* Human-readable lowering map for [nakika plan explain]: which plan
   field became which config knob, per node block. *)
let explain (plan : Ast.t) lowered =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "plan %s\n" (String.sub plan.Ast.hash 0 12);
  List.iter
    (fun l ->
      Printf.bprintf buf "node %S:\n" l.node_pattern;
      let c = l.config in
      List.iter
        (fun (k : Verify.knob) ->
          Printf.bprintf buf "  %s.%s -> %s = %s\n" k.Verify.section k.Verify.key k.Verify.field
            (k.Verify.show c))
        Verify.vocabulary;
      let slots = int_of_float (Verify.admission.Verify.get c) in
      List.iter
        (fun (pattern, f) ->
          Printf.bprintf buf "  site %S -> share %g%% (%d of %d slots)\n" pattern (100.0 *. f)
            (max 1 (int_of_float ((f *. float_of_int slots) +. 0.5)))
            slots)
        (Verify.admission_of c).Nk_resource.Admission.shares;
      List.iter
        (fun (pattern, base, max_) ->
          Printf.bprintf buf "  site %S -> quarantine base %gs max %gs\n" pattern base max_)
        c.Config.quarantine.Nk_resource.Quarantine.site_params;
      List.iter
        (fun (pattern, fuel) -> Printf.bprintf buf "  site %S -> fuel cap %d\n" pattern fuel)
        c.Config.site_fuel;
      List.iter
        (fun (pattern, heap) ->
          Printf.bprintf buf "  site %S -> heap cap %d bytes\n" pattern heap)
        c.Config.site_heap)
    lowered;
  Buffer.contents buf
