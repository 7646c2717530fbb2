(* The front door: parse -> verify -> lower, reporting everything
   through [Nk_analysis.Diagnostic] so the CLI prints plan problems
   exactly like script lints — [line:col: severity[code]: message] —
   with the same exit-code convention (0 clean, 1 warnings, 2 errors).

   [compile] additionally runs [Nk_node.Config.validate] — the checker
   nodes themselves apply at construction — over every lowered config.
   A clean compile therefore guarantees [Nk_node.Node.create] accepts
   the result: verification and rejection share one implementation. *)

module D = Nk_analysis.Diagnostic
module Config = Nk_node.Config

type report = {
  plan : Ast.t option; (* None when the plan did not parse *)
  diagnostics : D.t list;
  lowered : Lower.lowered list; (* empty unless compiled error-free *)
}

let errors report = D.count D.Error report.diagnostics

let warnings report = D.count D.Warning report.diagnostics

let parse source =
  match Parser.parse source with
  | plan -> Ok plan
  | exception Lexer.Lex_error (msg, pos) -> Error (D.error "lex-error" pos "%s" msg)
  | exception Parser.Parse_error (msg, pos) -> Error (D.error "parse-error" pos "%s" msg)

(* Parse and verify, keeping the resolved plan for lowering. *)
let verify source =
  match parse source with
  | Error d -> ({ plan = None; diagnostics = [ d ]; lowered = [] }, None)
  | Ok plan ->
    let resolved, diagnostics = Verify.check plan in
    ({ plan = Some plan; diagnostics; lowered = [] }, Some resolved)

let check source = fst (verify source)

let compile ?base source =
  match verify source with
  | report, Some resolved when errors report = 0 ->
    let lowered = Lower.lower ?base resolved in
    (* Belt and braces: the node-side checker over each lowered
       config. Findings here are verifier bugs by construction, but
       surfacing them as diagnostics beats a late [Invalid_argument]
       from [Node.create]. *)
    let config_diags =
      List.concat_map
        (fun (l : Lower.lowered) ->
          List.map
            (fun problem ->
              D.error "config-invalid" l.Lower.node_pos "node %S: lowered config rejected: %s"
                l.Lower.node_pattern problem)
            (Config.validate l.Lower.config))
        lowered
    in
    if config_diags = [] then { report with lowered }
    else { report with diagnostics = List.sort D.compare (report.diagnostics @ config_diags) }
  | report, _ -> report

let config_for report ~node =
  match report.lowered with [] -> None | lowered -> Lower.config_for lowered ~node

let hash report = Option.map (fun (p : Ast.t) -> p.Ast.hash) report.plan

let explain report =
  match report.plan with
  | None -> "plan did not parse\n"
  | Some plan -> Lower.explain plan report.lowered
