open Ast
module A = Ast

(* Expression precedence: additive 1, multiplicative 2, atoms 3. *)
let prec_of = function
  | Bin ((Add | Sub), _, _) -> 1
  | Bin ((Mul | Div | Mod), _, _) -> 2
  | Int _ | Float _ | Var _ -> 3

(* Shortest representation that parses back to exactly the same float, so
   generated programs round-trip bit-for-bit. *)
let float_literal f =
  let pick fmt = Printf.sprintf fmt f in
  let s =
    let s9 = pick "%.9g" in
    if float_of_string s9 = f then s9
    else
      let s12 = pick "%.12g" in
      if float_of_string s12 = f then s12 else pick "%.17g"
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s else s ^ ".0"

let rec expr_prec level e =
  let s =
    match e with
    | Int n -> string_of_int n
    | Float f -> float_literal f
    | Var v -> v
    | Bin (op, a, b) ->
        let my = prec_of e in
        let op_s =
          match op with
          | Add -> "+"
          | Sub -> "-"
          | Mul -> "*"
          | Div -> "/"
          | Mod -> "MOD"
        in
        (* left-associative: right child needs strictly higher precedence *)
        Printf.sprintf "%s %s %s" (expr_prec my a) op_s (expr_prec (my + 1) b)
  in
  if prec_of e < level then "(" ^ s ^ ")" else s

let expr e = expr_prec 0 e

let cmp_op = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* Predicate precedence: OR 1, AND 2, NOT 3, atoms 4. *)
let pred_prec_of = function
  | Or _ -> 1
  | And _ -> 2
  | Not _ -> 3
  | True | False | Cmp _ | Divides _ -> 4

let rec pred_prec level p =
  let s =
    match p with
    | True -> "TRUE"
    | False -> "FALSE"
    | Cmp (op, a, b) -> Printf.sprintf "%s %s %s" (expr a) (cmp_op op) (expr b)
    | Divides (k, e) -> Printf.sprintf "%s DIVIDES %s" (expr k) (expr e)
    | And (a, b) -> Printf.sprintf "%s AND %s" (pred_prec 2 a) (pred_prec 3 b)
    | Or (a, b) -> Printf.sprintf "%s OR %s" (pred_prec 1 a) (pred_prec 2 b)
    | Not a -> Printf.sprintf "NOT %s" (pred_prec 3 a)
  in
  if pred_prec_of p < level then "(" ^ s ^ ")" else s

let pred p = pred_prec 0 p

let tasks = function
  | All None -> "ALL TASKS"
  | All (Some v) -> "ALL TASKS " ^ v
  | Single e -> "TASK " ^ expr_prec 3 e
  | Group { var; pred = p } -> Printf.sprintf "TASKS %s SUCH THAT %s" var (pred p)

(* Singular subjects conjugate their verb: "TASK 0 MULTICASTS". *)
let is_singular = function Single _ -> true | All _ | Group _ -> false

let verb t base = if is_singular t then base ^ "S" else base

let buf_add_indented buf depth s =
  Buffer.add_string buf (String.make (2 * depth) ' ');
  Buffer.add_string buf s

let rec stmt_lines buf depth s =
  match s with
  | Send { src; async; bytes; dst; tag; implicit_recv } ->
      let tag_s = if tag = 0 then "" else Printf.sprintf " USING TAG %d" tag in
      buf_add_indented buf depth
        (Printf.sprintf "%s %s%s A %s BYTE MESSAGE TO TASK %s%s%s" (tasks src)
           (if async then "ASYNCHRONOUSLY " else "")
           (verb src "SEND") (expr bytes) (expr_prec 3 dst) tag_s
           (if implicit_recv then "" else " WITH NO IMPLICIT RECEIVE"))
  | Receive { dst; async; bytes; src; tag } ->
      let tag_s =
        if tag = 0 then ""
        else if tag < 0 then " USING ANY TAG"
        else Printf.sprintf " USING TAG %d" tag
      in
      buf_add_indented buf depth
        (Printf.sprintf "%s %s%s A %s BYTE MESSAGE FROM TASK %s%s" (tasks dst)
           (if async then "ASYNCHRONOUSLY " else "")
           (verb dst "RECEIVE") (expr bytes) (expr_prec 3 src) tag_s)
  | Await t ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s COMPLETION" (tasks t) (verb t "AWAIT"))
  | Sync t ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s" (tasks t) (verb t "SYNCHRONIZE"))
  | Multicast { src; bytes; dst } ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s A %s BYTE MESSAGE TO %s" (tasks src)
           (verb src "MULTICAST") (expr bytes) (tasks dst))
  | Reduce { src; bytes; dst } ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s A %s BYTE MESSAGE TO %s" (tasks src)
           (verb src "REDUCE") (expr bytes) (tasks dst))
  | Alltoall { tasks = t; bytes } ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s A %s BYTE MESSAGE TO ALL OTHER TASKS" (tasks t)
           (verb t "SEND") (expr bytes))
  | Neighbor { tasks = t; bytes; offsets; gather } ->
      let offs = String.concat ", " (List.map string_of_int offsets) in
      buf_add_indented buf depth
        (if gather then
           Printf.sprintf "%s %s A %s BYTE MESSAGE FROM NEIGHBORS AT OFFSETS %s"
             (tasks t) (verb t "GATHER") (expr bytes) offs
         else
           Printf.sprintf "%s %s A %s BYTE MESSAGE WITH NEIGHBORS AT OFFSETS %s"
             (tasks t) (verb t "EXCHANGE") (expr bytes) offs)
  | Compute { tasks = t; usecs } ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s FOR %s MICROSECONDS" (tasks t) (verb t "COMPUTE")
           (expr usecs))
  | For { count; body } ->
      buf_add_indented buf depth
        (Printf.sprintf "FOR %s REPETITIONS {" (expr count));
      block buf depth body
  | For_each { var; first; last; body } ->
      buf_add_indented buf depth
        (Printf.sprintf "FOR EACH %s IN {%s, ..., %s} {" var (expr first)
           (expr last));
      block buf depth body
  | If { cond; then_; else_ } ->
      buf_add_indented buf depth (Printf.sprintf "IF %s THEN {" (pred cond));
      block buf depth then_;
      if else_ <> [] then begin
        (* rewrite the closing brace into "} ELSE {" *)
        let len = Buffer.length buf in
        let content = Buffer.sub buf 0 len in
        Buffer.clear buf;
        Buffer.add_string buf content;
        Buffer.add_string buf " ELSE {";
        block buf depth else_
      end
  | Log { tasks = t; agg; label } ->
      let agg_s =
        match agg with
        | None -> ""
        | Some A.Mean -> "THE MEAN OF "
        | Some A.Median -> "THE MEDIAN OF "
        | Some A.Minimum -> "THE MINIMUM OF "
        | Some A.Maximum -> "THE MAXIMUM OF "
      in
      buf_add_indented buf depth
        (Printf.sprintf "%s %s %selapsed_usecs AS \"%s\"" (tasks t) (verb t "LOG")
           agg_s label)
  | Reset t ->
      buf_add_indented buf depth
        (Printf.sprintf "%s %s THEIR COUNTERS" (tasks t) (verb t "RESET"))

and block buf depth body =
  Buffer.add_char buf '\n';
  seq buf (depth + 1) body;
  Buffer.add_char buf '\n';
  buf_add_indented buf depth "}"

and seq buf depth body =
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf " THEN\n";
      stmt_lines buf depth s)
    body

let stmt s =
  let buf = Buffer.create 128 in
  stmt_lines buf 0 s;
  Buffer.contents buf

let program (p : program) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      Buffer.add_string buf ("# " ^ c);
      Buffer.add_char buf '\n')
    p.comments;
  seq buf 0 p.body;
  Buffer.add_char buf '\n';
  Buffer.contents buf
