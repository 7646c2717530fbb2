type t = {
  url : string;
  digest : string;
  ctx : Nk_script.Interp.ctx;
  policies : Nk_policy.Policy.t list;
  tree : Nk_policy.Decision_tree.t;
  (* Handlers share the stage's scripting context (its globals include
     the per-request Request/Response objects), so concurrent pipelines
     must not interleave inside it: a FIFO lock serializes handler
     execution per stage, the moral equivalent of the prototype running
     each pipeline in its own process (§4). *)
  mutable busy : bool;
  waiters : (unit -> unit) Queue.t;
}

let url t = t.url

let digest t = t.digest

let context t = t.ctx

let policies t = t.policies

(* The one context builder: a fresh sandbox with the platform
   vocabularies and the [Policy] constructor installed, the program run
   in it, and the decision tree built from the policies it registered. *)
let of_program ~url ~host ?max_fuel ?max_heap_bytes ?seed
    (script : Nk_script.Compile.script) =
  let ctx = Nk_script.Interp.create ?max_fuel ?max_heap_bytes () in
  Nk_vocab.Platform_v.install_all host ?seed ctx;
  Nk_vocab.Eval_v.install ctx;
  let registry = Nk_policy.Script_bridge.create_registry () in
  Nk_policy.Script_bridge.install registry ctx;
  match Nk_script.Compile.run ctx script.Nk_script.Compile.program with
  | _ ->
    let policies = Nk_policy.Script_bridge.policies registry in
    Ok
      {
        url;
        digest = script.Nk_script.Compile.digest;
        ctx;
        policies;
        tree = Nk_policy.Decision_tree.build policies;
        busy = false;
        waiters = Queue.create ();
      }
  | exception Nk_script.Value.Script_error msg -> Error (Printf.sprintf "%s: %s" url msg)
  | exception Nk_script.Interp.Resource_exhausted msg ->
    Error (Printf.sprintf "%s: %s" url msg)

let of_script ~url ~host ?max_fuel ?max_heap_bytes ?seed ?on_compile_cache
    ?(lint = `Permissive) ?on_lint ~source () =
  let parsed =
    match Nk_script.Compile.lookup ?on_cache:on_compile_cache source with
    | script -> Ok script
    | exception Nk_script.Parser.Parse_error (msg, pos) -> Error ("parse", msg, pos)
    | exception Nk_script.Lexer.Lex_error (msg, pos) -> Error ("lex", msg, pos)
  in
  (* Admission-time static analysis of the cached AST. [`Strict]
     refuses scripts with error-severity diagnostics before any code
     runs; [`Permissive] still analyzes (so observers see the counts)
     but only reports. *)
  let rejection =
    match lint with
    | `Off -> None
    | (`Permissive | `Strict) as mode ->
      let module A = Nk_analysis.Analysis in
      let report =
        match parsed with
        | Ok script -> A.analyze script.Nk_script.Compile.ast
        | Error (kind, msg, pos) -> A.parse_failure ~kind msg pos
      in
      Option.iter (fun f -> f report) on_lint;
      if mode = `Permissive then None
      else
        List.find_opt
          (fun (d : Nk_analysis.Diagnostic.t) ->
            d.Nk_analysis.Diagnostic.severity = Nk_analysis.Diagnostic.Error)
          report.A.diagnostics
        |> Option.map (fun d ->
               Printf.sprintf "%s: rejected by lint: %d error(s), first: %s" url
                 (A.errors report) (Nk_analysis.Diagnostic.to_string d))
  in
  match (rejection, parsed) with
  | Some msg, _ -> Error msg
  | None, Error (kind, msg, pos) ->
    Error
      (Printf.sprintf "%s: %s error at %d:%d: %s" url kind pos.Nk_script.Ast.line
         pos.Nk_script.Ast.col msg)
  | None, Ok script -> of_program ~url ~host ?max_fuel ?max_heap_bytes ?seed script

let select t req = Nk_policy.Decision_tree.find_closest t.tree req

let acquire t =
  if t.busy then
    (* Suspend this pipeline's cothread until the current holder
       releases; the release hands the lock over directly. *)
    Nk_util.Cothread.await (fun k -> Queue.add k t.waiters)
  else t.busy <- true

let release t =
  match Queue.take_opt t.waiters with
  | Some k -> k () (* stays busy; ownership passes to the waiter *)
  | None -> t.busy <- false
