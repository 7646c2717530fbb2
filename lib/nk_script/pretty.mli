(** NKScript pretty-printer: AST back to canonical source.

    Used by the [nakika fmt] developer tool and by tests that check the
    parser via parse/print/parse fixpoints. The output parses back to a
    structurally identical AST (positions aside). *)

val program : Ast.program -> string

val expr : Ast.expr -> string

val format : string -> (string, string) result
(** Parse then print; [Error] carries the parse/lex diagnostic. *)
