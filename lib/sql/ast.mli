(** Abstract syntax for the SQL subset the engine executes.

    The subset is deliberately the paper's world: SELECT-FROM-WHERE over
    two or more relations with INNER/SEMI/ANTI/CROSS joins on conjunctions
    of predicates, plus projection, DISTINCT, GROUP BY/HAVING, ORDER BY and
    LIMIT.  The inference machinery emits queries in this AST
    ([of_equijoin], [of_semijoin]) so that an inferred predicate is
    immediately executable and printable. *)

type binop = Add | Sub | Mul | Div

type expr =
  | Col of string option * string  (** optional qualifier: [r.a] or [a] *)
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | Binop of binop * expr * expr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cond =
  | Cmp of cmp * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond
  | Is_null of expr
  | Is_not_null of expr

type join_kind = Inner | Semi | Anti | Cross

type source = { table : string; alias : string option }

type agg_fn = Count | Sum | Avg | Min | Max

type select_item =
  | Star
  | Expr of expr * string option  (** AS alias *)
  | Agg of agg_fn * expr option * string option
      (** a [None] argument means the star form of COUNT; others need one *)

type order = Asc | Desc

type query = {
  distinct : bool;
  select : select_item list;
  from : source;
  joins : (join_kind * source * cond option) list;
  where : cond option;
  group_by : expr list;
  having : cond option;  (** evaluated over the grouped output columns *)
  order_by : (expr * order) list;
  limit : int option;
}

val equal_expr : expr -> expr -> bool
(** Structural equality on expressions; used by GROUP BY to match select
    items against grouping keys.  Float literals compare with
    [Float.equal], so a nan literal matches itself syntactically. *)

val of_equijoin : r:string -> p:string -> (string * string) list -> query
(** [SELECT * FROM r JOIN p ON pairs] — the query shape the paper infers.
    An empty pair list degenerates to CROSS JOIN, matching θ = ∅. *)

val of_semijoin : r:string -> p:string -> (string * string) list -> query
(** [SELECT * FROM r SEMI JOIN p ON pairs] — the §6 query shape. *)

val keywords : string list
(** Reserved words of the grammar, lowercase.  Kept in sync with the
    lexer by the printer round-trip tests. *)

(** {1 Printing}

    Printed queries re-parse to the same AST; binops are always
    parenthesized so the cycle is a fixpoint. *)

val pp_expr : Format.formatter -> expr -> unit
val to_string : query -> string
