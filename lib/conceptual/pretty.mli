(** English-like concrete syntax (the .ncptl file the generator emits).

    The output round-trips: [Parse.program (Pretty.program p)] yields a
    program structurally equal to [p].  Statements are sequenced with THEN;
    loop and conditional bodies are brace-delimited; verbs agree with their
    subject ("ALL TASKS SEND", "TASK 0 MULTICASTS"). *)

val expr : Ast.expr -> string
val pred : Ast.pred -> string
val tasks : Ast.tasks -> string
val stmt : Ast.stmt -> string

(** Full program text, comments included. *)
val program : Ast.program -> string
