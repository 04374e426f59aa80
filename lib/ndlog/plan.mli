(** Rule strands: Click-style dataflow plans (the paper, Section 2.2:
    programs are "compiled into distributed execution plans that are
    based on the Click execution model").

    A strand is a linear pipeline of relational operators through which
    an environment stream flows:

    {v delta(path) -> join(link) -> bind(C) -> filter(...) -> project(path) v}

    Executing a strand against a database (plus the triggering delta
    tuple) yields exactly the head tuples pipelined semi-naive
    evaluation produces for that one delta tuple; this is
    differentially tested against a reference evaluator. *)

(** Pipeline operators. *)
type op =
  | Delta of { pred : string; args : Ast.expr list }
      (** bind the triggering tuple (strand head) *)
  | Join of { pred : string; args : Ast.expr list }
      (** join the stream against a stored relation *)
  | Anti_join of { pred : string; args : Ast.expr list }
      (** negation: keep environments with no matching tuple *)
  | Bind of string * Ast.expr  (** assignment *)
  | Filter of Ast.cmp * Ast.expr * Ast.expr  (** comparison *)
  | Project of Ast.head  (** emit the head tuple *)

type strand = {
  strand_rule : Ast.rule;
  delta_pred : string option;  (** [None] for a full-scan strand *)
  delta_index : int option;  (** body position of the delta literal *)
  ops : op list;
}

exception Plan_error of string

val compile_strand : Ast.rule -> delta:int -> strand
(** One strand of [rule] triggered by the positive body atom at index
    [delta].
    @raise Plan_error on aggregate rules or bad delta positions. *)

val compile_scan : Ast.rule -> strand
(** The full-scan strand (no trigger; evaluates against the whole
    database). *)

val compile_program : ?trigger_preds:string list -> Ast.program -> strand list
(** All delta strands of a program: one per (rule, positive body
    literal), restricted to [trigger_preds] when given.  Aggregate rules
    contribute no strands (they are view-refreshed). *)

val execute :
  ?stats:Eval.counters ->
  Store.t ->
  ?delta_tuple:Store.Tuple.t ->
  strand ->
  Store.Tuple.t list
(** Run a strand; [delta_tuple] is required for delta strands.
    [stats] accumulates the join counters of the run.
    @raise Plan_error when a delta strand runs without a tuple. *)

val execute_batch :
  ?stats:Eval.counters ->
  Store.t ->
  delta_tuples:Store.Tuple.t list ->
  strand ->
  Store.Tuple.t list
(** Run a delta strand over a batch of triggering tuples at once: the
    batch becomes a delta relation flowing through {!Eval.delta_envs},
    so the group-at-a-time join applies.  Same multiset of head tuples
    as executing the strand per tuple.
    @raise Plan_error on full-scan strands. *)

val pp_op : op Fmt.t
val pp : strand Fmt.t
