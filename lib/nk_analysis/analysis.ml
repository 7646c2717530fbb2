(* Facade for the static analyzer: run the four passes over a parsed
   program. The node's admission-time lint ([Nk_pipeline.Stage.of_script])
   analyzes the AST held in [Nk_script.Compile]'s script cache, so a
   stage build never parses a body the compiler already parsed; only the
   CLI starts from source text ([analyze_program_source]). *)

type report = {
  diagnostics : Diagnostic.t list;  (** sorted by position, then severity *)
  costs : Cost.item list;  (** per-handler/per-function cost bounds *)
}

let errors r = Diagnostic.count Diagnostic.Error r.diagnostics

let warnings r = Diagnostic.count Diagnostic.Warning r.diagnostics

let clean r = errors r = 0

let analyze (program : Nk_script.Ast.program) : report =
  let model = Model.build program in
  let scope_diags = Scope.check model in
  let shape_diags = Callshape.check model in
  let costs, cost_diags = Cost.analyze model in
  let taint_diags = Taint.check model in
  let diagnostics =
    List.sort Diagnostic.compare
      (scope_diags @ shape_diags @ cost_diags @ taint_diags)
  in
  { diagnostics; costs }

(* A body that does not even parse gets a one-diagnostic report: the
   caller decides whether that is fatal (strict node) or left for the
   compile path to surface (permissive). [kind] is "parse" or "lex". *)
let parse_failure ~kind msg pos : report =
  { diagnostics = [ Diagnostic.error "parse-error" pos "%s error: %s" kind msg ]; costs = [] }

let analyze_program_source source : report =
  match Nk_script.Parser.parse source with
  | program -> analyze program
  | exception Nk_script.Parser.Parse_error (msg, pos) -> parse_failure ~kind:"parse" msg pos
  | exception Nk_script.Lexer.Lex_error (msg, pos) -> parse_failure ~kind:"lex" msg pos
