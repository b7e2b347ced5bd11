(** Abstract syntax of our coNCePTuaL-style specification language.

    The language covers the subset of coNCePTuaL (Pakin, TPDS'07) that the
    benchmark generator targets: point-to-point sends/receives (blocking or
    asynchronous), AWAIT COMPLETION, SYNCHRONIZE, REDUCE and MULTICAST
    collectives over arbitrary task groups, COMPUTE delays, counted and
    ranged loops, conditionals, and counter logging.  Programs are
    expressed in absolute task (world rank) numbers only — communicators
    never appear, exactly as in the paper's generated benchmarks. *)

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
  | Divides of expr * expr  (** [Divides (k, e)]: k evenly divides e *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(** A set of tasks, optionally binding a task variable usable in contained
    expressions. *)
type tasks =
  | All of string option  (** ALL TASKS / ALL TASKS t *)
  | Single of expr  (** TASK e *)
  | Group of { var : string; pred : pred }  (** TASKS t SUCH THAT pred *)

(** Aggregations usable in LOG statements. *)
type agg = Mean | Median | Minimum | Maximum

type stmt =
  | Send of {
      src : tasks;
      async : bool;
      bytes : expr;
      dst : expr;  (** may reference [src]'s task variable *)
      tag : int;  (** message channel ("USING TAG n"); 0 is the default.
                      An extension over real coNCePTuaL, needed to keep
                      independent message streams between the same pair of
                      tasks from cross-matching. *)
      implicit_recv : bool;
          (** when true the destination implicitly posts the matching
              receive (plain coNCePTuaL style); the generator emits
              explicit receives and sets this to false *)
    }
  | Receive of {
      dst : tasks;
      async : bool;
      bytes : expr;
      src : expr;
      tag : int;  (** -1 accepts any channel ("USING ANY TAG") *)
    }
  | Await of tasks  (** AWAIT COMPLETION of all outstanding async ops *)
  | Sync of tasks  (** SYNCHRONIZE: barrier over the group *)
  | Multicast of { src : tasks; bytes : expr; dst : tasks }
      (** one/many-to-many fan-out; [src] must select one task *)
  | Reduce of { src : tasks; bytes : expr; dst : tasks }
      (** many-to-one/many fan-in; reduce-to-all when [dst] equals [src] *)
  | Alltoall of { tasks : tasks; bytes : expr }
      (** every group member exchanges [bytes] with every other *)
  | Neighbor of { tasks : tasks; bytes : expr; offsets : int list; gather : bool }
      (** sparse neighborhood collective over the group: each member
          exchanges ([gather = false]) or gathers from ([gather = true])
          the neighbors at the given positive relative [offsets] in
          group-position space, cyclically *)
  | Compute of { tasks : tasks; usecs : expr }  (** COMPUTES FOR n MICROSECONDS *)
  | For of { count : expr; body : stmt list }  (** FOR n REPETITIONS *)
  | For_each of { var : string; first : expr; last : expr; body : stmt list }
  | If of { cond : pred; then_ : stmt list; else_ : stmt list }
  | Log of { tasks : tasks; agg : agg option; label : string }
      (** LOG \[THE MEDIAN OF\] elapsed_usecs AS "label"; the aggregate,
          when present, combines the values a task logs across
          repetitions *)
  | Reset of tasks  (** RESET THEIR COUNTERS *)

type program = { comments : string list; body : stmt list }

(** {1 Evaluation} *)

type env = (string * int) list

exception Eval_error of string

(** Integer evaluation; [Float] literals round.  @raise Eval_error on
    unbound variables or division by zero. *)
val eval_int : env -> expr -> int

val eval_float : env -> expr -> float
val eval_pred : env -> pred -> bool

(** [mem tasks env ~rank ~nranks] — does [rank] belong to the set?  The
    set's binder (if any) is bound to [rank] while evaluating. *)
val mem : tasks -> env -> rank:int -> nranks:int -> bool

(** Concrete members of a task set, ascending. *)
val members : tasks -> env -> nranks:int -> int list

(** Binder variable of a task set, if any. *)
val binder : tasks -> string option

(** {1 Construction helpers (used by the benchmark generator)} *)

(** Express a rank set as a [tasks] value: [All] when it covers
    [0..nranks-1], [Single] for singletons, otherwise a [Group] whose
    predicate encodes the set's strided intervals.  The binder is
    always [t]. *)
val tasks_of_rank_set : nranks:int -> Util.Rank_set.t -> tasks

(** {1 Traversal} *)

(** Map every statement bottom-up (children first). *)
val map_stmts : (stmt -> stmt) -> program -> program

(** Fold over all statements (pre-order). *)
val fold_stmts : ('a -> stmt -> 'a) -> 'a -> program -> 'a

(** Number of statements (loop bodies counted once). *)
val size : program -> int

val equal : program -> program -> bool
