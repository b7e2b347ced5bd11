type binop = Add | Sub | Mul | Div | Mod

type expr =
  | Int of int
  | Float of float
  | Var of string
  | Bin of binop * expr * expr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | True
  | False
  | Cmp of cmp * expr * expr
  | Divides of expr * expr
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type tasks =
  | All of string option
  | Single of expr
  | Group of { var : string; pred : pred }

type agg = Mean | Median | Minimum | Maximum

type stmt =
  | Send of {
      src : tasks;
      async : bool;
      bytes : expr;
      dst : expr;
      tag : int;
      implicit_recv : bool;
    }
  | Receive of { dst : tasks; async : bool; bytes : expr; src : expr; tag : int }
  | Await of tasks
  | Sync of tasks
  | Multicast of { src : tasks; bytes : expr; dst : tasks }
  | Reduce of { src : tasks; bytes : expr; dst : tasks }
  | Alltoall of { tasks : tasks; bytes : expr }
  | Neighbor of { tasks : tasks; bytes : expr; offsets : int list; gather : bool }
  | Compute of { tasks : tasks; usecs : expr }
  | For of { count : expr; body : stmt list }
  | For_each of { var : string; first : expr; last : expr; body : stmt list }
  | If of { cond : pred; then_ : stmt list; else_ : stmt list }
  | Log of { tasks : tasks; agg : agg option; label : string }
  | Reset of tasks

type program = { comments : string list; body : stmt list }

type env = (string * int) list

exception Eval_error of string

let rec eval_int env = function
  | Int n -> n
  | Float f -> int_of_float (Float.round f)
  | Var v -> (
      match List.assoc_opt v env with
      | Some n -> n
      | None -> raise (Eval_error ("unbound variable " ^ v)))
  | Bin (op, a, b) -> (
      let x = eval_int env a and y = eval_int env b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div -> if y = 0 then raise (Eval_error "division by zero") else x / y
      | Mod ->
          if y = 0 then raise (Eval_error "modulo by zero")
          else ((x mod y) + y) mod y)

let rec eval_float env = function
  | Int n -> float_of_int n
  | Float f -> f
  | Var v -> (
      match List.assoc_opt v env with
      | Some n -> float_of_int n
      | None -> raise (Eval_error ("unbound variable " ^ v)))
  | Bin (op, a, b) -> (
      let x = eval_float env a and y = eval_float env b in
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> if y = 0. then raise (Eval_error "division by zero") else x /. y
      | Mod -> Float.rem x y)

let rec eval_pred env = function
  | True -> true
  | False -> false
  | Cmp (op, a, b) -> (
      let x = eval_int env a and y = eval_int env b in
      match op with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y)
  | Divides (k, e) ->
      let k = eval_int env k and v = eval_int env e in
      if k = 0 then raise (Eval_error "0 DIVIDES")
      else v mod k = 0
  | And (a, b) -> eval_pred env a && eval_pred env b
  | Or (a, b) -> eval_pred env a || eval_pred env b
  | Not p -> not (eval_pred env p)

let binder = function
  | All v -> v
  | Single _ -> None
  | Group { var; _ } -> Some var

let mem tasks env ~rank ~nranks =
  rank >= 0 && rank < nranks
  &&
  match tasks with
  | All _ -> true
  | Single e -> eval_int env e = rank
  | Group { var; pred } -> eval_pred ((var, rank) :: env) pred

let members tasks env ~nranks =
  List.filter
    (fun r -> mem tasks env ~rank:r ~nranks)
    (List.init nranks Fun.id)

let tasks_of_rank_set ~nranks set =
  let var = "t" in
  if Util.Rank_set.equal set (Util.Rank_set.all nranks) then All (Some var)
  else
    match Util.Rank_set.to_list set with
    | [ r ] -> Single (Int r)
    | _ ->
        let t = Var var in
        let interval_pred (first, last, stride) =
          let base =
            if first = last then Cmp (Eq, t, Int first)
            else And (Cmp (Ge, t, Int first), Cmp (Le, t, Int last))
          in
          if stride = 1 || first = last then base
          else if first = 0 then And (base, Divides (Int stride, t))
          else And (base, Divides (Int stride, Bin (Sub, t, Int first)))
        in
        let pred =
          match Util.Rank_set.intervals set with
          | [] -> False
          | iv :: rest ->
              List.fold_left
                (fun acc iv -> Or (acc, interval_pred iv))
                (interval_pred iv) rest
        in
        Group { var; pred }

let rec map_stmt f s =
  let s =
    match s with
    | For r -> For { r with body = List.map (map_stmt f) r.body }
    | For_each r -> For_each { r with body = List.map (map_stmt f) r.body }
    | If r ->
        If
          {
            r with
            then_ = List.map (map_stmt f) r.then_;
            else_ = List.map (map_stmt f) r.else_;
          }
    | Send _ | Receive _ | Await _ | Sync _ | Multicast _ | Reduce _
    | Alltoall _ | Neighbor _ | Compute _ | Log _ | Reset _ ->
        s
  in
  f s

let map_stmts f p = { p with body = List.map (map_stmt f) p.body }

let rec fold_stmt f acc s =
  let acc = f acc s in
  match s with
  | For { body; _ } | For_each { body; _ } -> List.fold_left (fold_stmt f) acc body
  | If { then_; else_; _ } ->
      List.fold_left (fold_stmt f) (List.fold_left (fold_stmt f) acc then_) else_
  | Send _ | Receive _ | Await _ | Sync _ | Multicast _ | Reduce _ | Alltoall _
  | Neighbor _ | Compute _ | Log _ | Reset _ ->
      acc

let fold_stmts f acc p = List.fold_left (fold_stmt f) acc p.body

let size p = fold_stmts (fun n _ -> n + 1) 0 p

let equal (a : program) (b : program) = a = b
